(** Domain scheduler for experiment-cell batches.

    [jobs - 1] worker domains plus the submitting domain execute a
    batch of independent {!Cell.t}s. At submission the cells are
    ordered longest-expected-first by their cost hints (stable on the
    submission index); every domain then claims the next cell in that
    order from one shared counter until none is left — Graham's LPT
    list scheduling.

    Results always come back in submission order, so anything rendered
    from them serially is byte-identical for every jobs value; only the
    wall-clock numbers in {!batch_stats} depend on scheduling. *)

type t

type batch_stats = {
  cells : int;
  cell_wall_s : float array;
      (** per-cell wall seconds, submission order: the serial-equivalent
          cost of the batch is the sum of this array *)
}

val create : jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs = 1]
    spawns none: the submitting domain claims every cell itself).
    Raises [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run_cells : t -> 'a Cell.t list -> 'a list
(** [run_cells t cells] executes the batch and returns results in
    submission order. An exception raised by a cell is re-raised here,
    with its backtrace, after the whole batch has drained (the first
    failing cell in submission order wins). Must be called from the
    domain that created [t]; batches do not nest. *)

val last_batch : t -> batch_stats
(** Stats of the most recent batch (zeros before the first). The
    per-cell wall times are scheduling-dependent: report them to stderr
    or JSON, never to the deterministic stdout. *)

val shutdown : t -> unit
(** Signal the workers to exit and join them. Required before process
    exit (the OCaml runtime waits for unjoined domains); idempotent. *)

val with_scheduler : jobs:int -> (t -> 'a) -> 'a
(** [with_scheduler ~jobs f] runs [f] and shuts down on any exit. *)

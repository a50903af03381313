(** Work-stealing Domain scheduler for experiment-cell batches.

    [jobs - 1] worker domains plus the submitting domain execute a
    batch of independent {!Cell.t}s. At submission the batch is planned
    longest-expected-first from the cells' cost hints, packed into
    chunks (cheap cells share a chunk, expensive cells go alone) and
    dealt LPT-greedily onto per-domain Chase-Lev-style deques
    ({!Deque}); an idle domain scans the other domains in ring order
    and steals from the top of the first non-empty deque.

    Results always come back in submission order, so anything rendered
    from them serially is byte-identical for every jobs value; only the
    wall-clock numbers in {!batch_stats} depend on scheduling. *)

type t

type batch_stats = {
  cells : int;
  chunks : int;  (** placement/steal units the batch was packed into *)
  steals : int;  (** chunks executed by a domain they were not dealt to *)
  steal_scans : int;  (** idle victim-scan sweeps, successful or not *)
  cell_wall_s : float array;
      (** per-cell wall seconds, submission order: the serial-equivalent
          cost of the batch is the sum of this array *)
}

val create : jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs = 1]
    spawns none and {!run_cells} degenerates to an in-order loop).
    When all cells are cheap, a batch is cut into [4 * jobs] chunks.
    Raises [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run_cells : ?pin:(int -> int) -> ?chunk_max:int -> t -> 'a Cell.t list -> 'a list
(** [run_cells t cells] executes the batch and returns results in
    submission order. An exception raised by a cell is re-raised here,
    with its backtrace, after the whole batch has drained (the first
    failing cell in submission order wins). Must be called from the
    domain that created [t]; batches do not nest.

    [chunk_max] caps the number of cells per chunk (default 16).
    [pin] overrides the LPT deal for tests: it maps a chunk index (in
    descending-cost order) to the domain the chunk is seeded on —
    [Invalid_argument] if outside [0, jobs). *)

val last_batch : t -> batch_stats
(** Stats of the most recent batch (zeros before the first). The stats
    are scheduling-dependent: report them to stderr or JSON, never to
    the deterministic stdout. *)

val shutdown : t -> unit
(** Signal the workers to exit and join them. Required before process
    exit (the OCaml runtime waits for unjoined domains); idempotent. *)

val with_scheduler : jobs:int -> (t -> 'a) -> 'a
(** [with_scheduler ~jobs f] runs [f] and shuts down on any exit. *)

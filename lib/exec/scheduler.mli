(** Process scheduler for experiment-cell batches.

    Each batch forks [min jobs n] worker processes. The cells are
    ordered longest-expected-first by their cost hints (stable on the
    submission index), and the parent hands the next cell in that order
    to whichever worker reports back first — Graham's LPT list
    scheduling, with one outstanding cell per worker. A worker returns
    its cell's result with [Marshal] and no [Closures] flag, so a result
    must be plain data: no closures, no custom blocks that refuse
    marshalling.

    Results always come back in submission order, so anything rendered
    from them serially is byte-identical for every jobs value; only the
    wall-clock numbers in {!batch_stats} depend on scheduling. A cell
    runs in a copy of the caller's heap: what it mutates outside its
    result is lost when its worker exits. *)

type batch_stats = {
  cells : int;
  cell_wall_s : float array;
      (** per-cell wall seconds measured in the worker, submission
          order: the serial-equivalent cost of the batch is the sum of
          this array *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the machine's core count. *)

val run_cells : jobs:int -> 'a Cell.t list -> 'a list * batch_stats
(** [run_cells ~jobs cells] runs the batch on [min jobs n] forked
    workers and returns the results in submission order, with the
    batch's stats. Every worker has exited and been reaped on return.

    A cell that raises, a result that [Marshal] rejects, and a worker
    that dies (signal or exit) each fail the batch, after the whole
    batch has drained: the first failing cell in submission order wins,
    and [Failure] carries its label, the exception text and the
    worker's backtrace. A dead worker is replaced while cells remain.
    The exception's identity does not cross the process boundary.
    Raises [Invalid_argument] when [jobs < 1]. *)

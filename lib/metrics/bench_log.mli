(** Wall-clock perf tracker for the benchmark harness.

    Serialises per-section and total wall time plus the worker count
    to a small JSON file ([BENCH_harness.json] by default). Every run
    rewrites the file with its own sections only.

    Schema 3: sections are stamped with the jobs count they ran at,
    their cell count, the summed per-cell wall time measured inside the
    scheduler (the serial-equivalent cost) and their render time; the
    top level records a measured speedup-vs-serial. *)

type section = {
  name : string;
  jobs : int;  (** the jobs count this section actually ran at *)
  cells : int;
  cell_wall_s : float;
      (** summed per-cell wall seconds: the serial-equivalent cost *)
  render_wall_s : float;
}

type t = {
  jobs : int;
  sections : section list;
  total_wall_s : float;
}

val schema : string
(** Schema identifier embedded in the JSON ("teraheap-bench-harness/3"). *)

val default_path : string
(** "BENCH_harness.json". *)

val section_wall_s : section -> float
(** [cell_wall_s + render_wall_s]. *)

val serial_equiv_s : t -> float
(** Serial-equivalent seconds of this run: every cell and render summed
    as if executed back to back. *)

val speedup_vs_serial_measured : t -> float
(** [serial_equiv_s / total_wall_s] — both terms are monotonic-clock
    measurements of this very run, so this is a measured speedup, not
    an estimate. *)

val to_json : t -> string

val write : ?path:string -> t -> unit
(** Write [to_json t] to [path], replacing any previous contents. *)

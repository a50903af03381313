(** Per-cycle GC statistics.

    Records what Figure 7 (GC timeline and old-generation occupancy) and
    Figure 11b (major-GC phase breakdown) plot. *)

type phases = {
  marking_ns : float;
  precompact_ns : float;
  adjust_ns : float;
  compact_ns : float;
}

type cycle =
  | Minor of { at_ns : float; duration_ns : float }
  | Major of {
      at_ns : float;
      duration_ns : float;
      phases : phases;
      old_occupancy_after : float;
      bytes_moved_to_h2 : int;
      regions_freed : int;
    }

type t

val create : unit -> t

val record : t -> cycle -> unit

val record_occupancy : t -> at_ns:float -> float -> unit
(** Sample the old-generation occupancy outside GC (Figure 7's top row). *)

val cycles : t -> cycle list

val cycle_count : t -> int
(** Cycles recorded so far; O(1), for pollers watching for new cycles. *)

val minor_count : t -> int

val major_count : t -> int

val minor_total_ns : t -> float

val major_total_ns : t -> float

val avg_major_ns : t -> float

val phase_totals : t -> phases

val occupancy_timeline : t -> (float * float) list
(** [(at_ns, old_occupancy)] samples in chronological order. *)

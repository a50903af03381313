(** Simulated time.

    Every modelled operation charges simulated nanoseconds to one of four
    categories matching the paper's execution-time breakdowns (§6):
    mutator ("other") time, serialization + I/O wait time, minor-GC time and
    major-GC time. The clock is the single source of truth for a run's
    end-to-end time. *)

type category =
  | Other  (** mutator computation, including page-fault I/O wait *)
  | Serde_io  (** serialization/deserialization and explicit off-heap I/O *)
  | Minor_gc
  | Major_gc

type breakdown = {
  other_ns : float;
  serde_io_ns : float;
  minor_gc_ns : float;
  major_gc_ns : float;
}

type t

val create : unit -> t

val advance : t -> category -> float -> unit
(** [advance t cat ns] adds [ns] simulated nanoseconds to [cat].
    Negative charges are rejected with [Invalid_argument]. *)

val read : t -> category -> float
(** [read t cat] is the time charged to [cat] so far. With {!commit} it
    lets a hot loop keep one category's charges in a local float: read
    once, add each charge locally, commit before anything that could read
    or charge the clock (a call out, a trace emission, the loop's end),
    and read again after it. The same additions in the same order give
    bit-identical time to one {!advance} per charge. *)

val commit : t -> category -> float -> unit
(** [commit t cat v] sets the time charged to [cat] to [v]. Raises
    [Invalid_argument] if [v] is below {!read}[ t cat]: a local
    accumulator of non-negative charges only grows. *)

val now_ns : t -> float
(** Total simulated time elapsed so far. *)

val breakdown : t -> breakdown

val total_ns : breakdown -> float

val sub : breakdown -> breakdown -> breakdown
(** [sub later earlier] is the per-category difference; used for measuring
    a phase of a run. *)

val set_tracer : t -> Th_trace.Recorder.t option -> unit
(** Attach (or detach) a flight recorder. Components sharing this clock
    emit trace events through it when one is attached; with [None] (the
    default) every emission site reduces to a single [match] on this
    field, so tracing is free when off. *)

val tracer : t -> Th_trace.Recorder.t option

val reset : t -> unit
(** Zeroes the time categories; the attached tracer, if any, stays. *)

val pp_breakdown : Format.formatter -> breakdown -> unit

(** Rendering of experiment results.

    The bench harness prints, for every figure of the paper, the same rows
    or series the figure plots: normalized execution-time breakdowns
    (other / S/D+I/O / minor GC / major GC), OOM markers, and CSV-ish
    tables. *)

type row = {
  label : string;
  breakdown : Th_sim.Clock.breakdown option;  (** [None] marks an OOM bar *)
}

val row : string -> Th_sim.Clock.breakdown -> row

val oom : string -> row

val print_breakdown_table : title:string -> row list -> unit
(** Print rows with per-category fractions, normalized to the total of
    the first non-OOM row, as the paper normalizes each plot to its
    first bar. When the [TH_CSV_DIR]
    environment variable names a directory, the raw (un-normalized)
    breakdown is also written there as [<title>.csv]. *)

val first_total : row list -> float option

val print_series : title:string -> header:string list -> string list list -> unit
(** Generic aligned table for non-breakdown figures. *)

val print_fault_summary : label:string -> Th_sim.Fault.stats -> unit
(** Print a run's fault-injection and recovery counters: injected faults
    by kind, retry/backoff totals, exhausted retries, recomputations and
    H2 degraded-mode events. *)

val speedup : baseline:Th_sim.Clock.breakdown -> Th_sim.Clock.breakdown -> float
(** [speedup ~baseline b] is the fractional improvement of [b] over
    [baseline]: [(t_base - t) / t_base]. *)

val pct : float -> string
(** Format a fraction as a percentage string. *)

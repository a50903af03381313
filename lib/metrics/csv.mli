(** Minimal CSV rendering for experiment results.

    The artifact workflow of the paper produces CSV files consumed by its
    plotting scripts; this module provides the same escape hatch:
    [to_channel] writes RFC-4180-style rows (quoting only when needed). *)

val escape : string -> string
(** Quote a field if it contains a comma, quote or newline. *)

val row_to_string : string list -> string

val to_string : header:string list -> string list list -> string

val to_channel : out_channel -> header:string list -> string list list -> unit

val breakdown_row :
  label:string -> Th_sim.Clock.breakdown option -> string list
(** [label, other_s, serde_io_s, minor_gc_s, major_gc_s, total_s] with
    ["OOM"] in every time column for failed runs. *)

val breakdown_header : string list

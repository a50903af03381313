(** JFR-style flight recorder: a ring buffer of events.

    A recorder belongs to one lane (one simulated runtime stack). The
    slot array starts at 1024 slots (fewer if the capacity is smaller)
    and doubles on demand until it holds the capacity, so a short run
    never pays for the full ring. From then on recording never grows
    the heap: when the buffer is full the oldest events are overwritten,
    keeping the most recent window of the run — the flight-recorder
    discipline. [dropped] reports how many events fell out of
    the window; exact stream analyses ({!Rollup}) require it to be zero,
    so size the buffer for the run (the default holds 2^18 events).

    Recording is purely observational: it never touches the simulated
    clock, so a traced run's timing, stdout and CSV output are
    byte-identical to an untraced one. *)

type t

val default_capacity : int

val create : ?capacity:int -> lane:int -> unit -> t
(** [capacity] is clamped below at 16 slots. *)

val lane : t -> int

val span_begin :
  t -> ts:float -> cat:string -> name:string ->
  ?args:(string * Event.arg) list -> unit -> unit

val span_end :
  t -> ts:float -> cat:string -> name:string ->
  ?args:(string * Event.arg) list -> unit -> unit

val complete :
  t -> ts:float -> dur_ns:float -> cat:string -> name:string ->
  ?args:(string * Event.arg) list -> unit -> unit

val instant :
  t -> ts:float -> cat:string -> name:string ->
  ?args:(string * Event.arg) list -> unit -> unit

val counter :
  t -> ts:float -> cat:string -> name:string ->
  args:(string * Event.arg) list -> unit

val length : t -> int
(** Events currently held (at most the capacity). *)

val total : t -> int
(** Events ever recorded, dropped ones included. *)

val dropped : t -> int

val events : t -> Event.t list
(** Retained events, oldest first. *)

val clear : t -> unit

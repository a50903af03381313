(** One schedulable experiment cell.

    A cell is an independent thunk (it builds its own clock, heap,
    device stack and PRNG) plus scheduling metadata: a human-readable
    [label], a [cost] hint (arbitrary positive units, e.g. heap size x
    workload iterations) that seeds longest-expected-first placement,
    and a [lane] id used by trace capture so merged traces stay
    deterministic regardless of which domain ran the cell. *)

type 'a t = { label : string; cost : float; lane : int; run : unit -> 'a }

val default_cost : float
(** 1.0 — the cost assumed when no hint is given. *)

val make : ?label:string -> ?cost:float -> ?lane:int -> (unit -> 'a) -> 'a t
(** Non-finite or non-positive [cost] hints fall back to
    {!default_cost}; a bad hint must never break scheduling. *)

val label : 'a t -> string
val cost : 'a t -> float
val lane : 'a t -> int

(** One schedulable experiment cell.

    A cell is an independent thunk (it builds its own clock, heap,
    device stack and PRNG) plus scheduling metadata: a human-readable
    [label], which names the cell when it fails, and a [cost] hint
    (arbitrary positive units, e.g. heap size x workload iterations)
    that seeds longest-expected-first placement. The thunk runs in a
    worker process and its result comes back through [Marshal], so it
    must be plain data. *)

type 'a t = { label : string; cost : float; run : unit -> 'a }

val default_cost : float
(** 1.0 — the cost assumed when no hint is given. *)

val make : ?label:string -> ?cost:float -> (unit -> 'a) -> 'a t
(** Non-finite or non-positive [cost] hints fall back to
    {!default_cost}; a bad hint must never break scheduling. *)

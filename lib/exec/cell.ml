(* One schedulable experiment cell: an independent thunk plus the
   metadata the scheduler plans with. Cells never share simulator state
   (each builds its own clock/heap/device stack), so the only contract
   is that [run] is self-contained and its result is returned in
   submission order. *)

type 'a t = { label : string; cost : float; lane : int; run : unit -> 'a }

let default_cost = 1.0

let make ?(label = "cell") ?(cost = default_cost) ?(lane = 0) run =
  { label; cost = (if Float.is_finite cost && cost > 0.0 then cost else default_cost); lane; run }

let label t = t.label

let cost t = t.cost

let lane t = t.lane

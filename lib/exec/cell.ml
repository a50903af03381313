(* One schedulable experiment cell: an independent thunk plus the
   metadata the scheduler plans with. Cells never share simulator state
   (each builds its own clock/heap/device stack), so the only contract
   is that [run] is self-contained and its result is plain data,
   returned in submission order. *)

type 'a t = { label : string; cost : float; run : unit -> 'a }

let default_cost = 1.0

let make ?(label = "cell") ?(cost = default_cost) run =
  { label; cost = (if Float.is_finite cost && cost > 0.0 then cost else default_cost); run }

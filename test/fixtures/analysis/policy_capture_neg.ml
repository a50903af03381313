(* The same counting policy with the shared counter behind an Atomic
   (recognised as safe by the escape rule) — no finding. *)
let make_counting_policy select =
  let moved = Atomic.make 0 in
  Th_policy.Policy.make ~name:"counting" ~select
    ~observe:(fun _ -> Atomic.incr moved)
    ()

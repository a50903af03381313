(* Unit and property tests for the simulation substrate: Vec, Prng,
   Clock, Size, Costs. *)

open Th_sim

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 0" 0 (Vec.get v 0);
  Alcotest.(check int) "get 99" 198 (Vec.get v 99)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "negative" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v (-1)));
  Alcotest.check_raises "past end" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 3))

let test_vec_pop () =
  let v = Vec.of_list [ 1; 2 ] in
  Alcotest.(check (option int)) "pop 2" (Some 2) (Vec.pop v);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Vec.pop v);
  Alcotest.(check (option int)) "empty" None (Vec.pop v);
  let w = Vec.of_list [ 1; 2 ] in
  Alcotest.(check int) "pop_last 2" 2 (Vec.pop_last w);
  Alcotest.(check int) "pop_last 1" 1 (Vec.pop_last w);
  Alcotest.check_raises "pop_last on empty"
    (Invalid_argument "Vec.pop_last: empty vector") (fun () ->
      ignore (Vec.pop_last w))

let test_vec_filter_in_place () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5; 6 ] in
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check (list int)) "evens kept in order" [ 2; 4; 6 ] (Vec.to_list v)

let test_vec_swap_remove () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Vec.swap_remove v 0;
  Alcotest.(check int) "length" 3 (Vec.length v);
  Alcotest.(check int) "last moved into slot" 4 (Vec.get v 0)

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun l -> Vec.to_list (Vec.of_list l) = l)

let prop_vec_filter_models_list =
  QCheck.Test.make ~name:"vec filter_in_place = List.filter" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let v = Vec.of_list l in
      Vec.filter_in_place (fun x -> x mod 3 <> 0) v;
      Vec.to_list v = List.filter (fun x -> x mod 3 <> 0) l)

let test_prng_deterministic () =
  let a = Prng.create 7L and b = Prng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_split_independent () =
  let a = Prng.create 7L in
  let c = Prng.split a in
  Alcotest.(check bool) "split differs from parent stream" true
    (Prng.int a 1_000_000 <> Prng.int c 1_000_000 || Prng.int a 1_000_000 <> Prng.int c 1_000_000)

let prop_prng_int_in_bounds =
  QCheck.Test.make ~name:"prng int stays within bounds" ~count:500
    QCheck.(pair int64 (int_range 1 10_000))
    (fun (seed, bound) ->
      let p = Prng.create seed in
      let x = Prng.int p bound in
      x >= 0 && x < bound)

let prop_prng_float_in_bounds =
  QCheck.Test.make ~name:"prng float stays within bounds" ~count:500
    QCheck.int64
    (fun seed ->
      let p = Prng.create seed in
      let x = Prng.float p 1.0 in
      x >= 0.0 && x < 1.0)

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf rank within range" ~count:500
    QCheck.(triple int64 (int_range 1 1000) (float_range 0.0 2.0))
    (fun (seed, n, theta) ->
      let p = Prng.create seed in
      let r = Prng.zipf_rank p ~n ~theta in
      r >= 0 && r < n)

let test_pareto_min () =
  let p = Prng.create 3L in
  for _ = 1 to 200 do
    Alcotest.(check bool) "pareto >= x_min" true
      (Prng.pareto p ~alpha:1.5 ~x_min:4.0 >= 4.0)
  done

let test_clock_accumulates () =
  let c = Clock.create () in
  Clock.advance c Clock.Other 100.0;
  Clock.advance c Clock.Minor_gc 50.0;
  Clock.advance c Clock.Major_gc 25.0;
  Clock.advance c Clock.Serde_io 10.0;
  Alcotest.(check (float 1e-9)) "total" 185.0 (Clock.now_ns c);
  let b = Clock.breakdown c in
  Alcotest.(check (float 1e-9)) "other" 100.0 b.Clock.other_ns;
  Alcotest.(check (float 1e-9)) "minor" 50.0 b.Clock.minor_gc_ns

let test_clock_rejects_negative () =
  let c = Clock.create () in
  Alcotest.check_raises "negative charge"
    (Invalid_argument "Clock.advance: negative charge") (fun () ->
      Clock.advance c Clock.Other (-1.0))

let test_clock_sub () =
  let c = Clock.create () in
  Clock.advance c Clock.Other 10.0;
  let before = Clock.breakdown c in
  Clock.advance c Clock.Other 7.0;
  let d = Clock.sub (Clock.breakdown c) before in
  Alcotest.(check (float 1e-9)) "delta" 7.0 d.Clock.other_ns

let test_size_conversions () =
  Alcotest.(check int) "kib" 2048 (Size.kib 2);
  Alcotest.(check int) "mib" (1024 * 1024) (Size.mib 1);
  Alcotest.(check int) "paper gb = mib" (Size.mib 80) (Size.paper_gb 80);
  Alcotest.(check string) "pp" "1.5 MiB" (Size.to_string (Size.kib 1536))

let test_costs_parallel () =
  let c = Costs.default in
  Alcotest.(check (float 1e-9)) "single thread unchanged" 100.0
    (Costs.parallel c ~threads:1 100.0);
  Alcotest.(check bool) "16 threads faster" true
    (Costs.parallel c ~threads:16 100.0 < 10.0)

let suite =
  [
    Alcotest.test_case "vec push/get" `Quick test_vec_push_get;
    Alcotest.test_case "vec bounds checks" `Quick test_vec_bounds;
    Alcotest.test_case "vec pop" `Quick test_vec_pop;
    Alcotest.test_case "vec filter_in_place" `Quick test_vec_filter_in_place;
    Alcotest.test_case "vec swap_remove" `Quick test_vec_swap_remove;
    QCheck_alcotest.to_alcotest prop_vec_roundtrip;
    QCheck_alcotest.to_alcotest prop_vec_filter_models_list;
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split independent" `Quick
      test_prng_split_independent;
    QCheck_alcotest.to_alcotest prop_prng_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_prng_float_in_bounds;
    QCheck_alcotest.to_alcotest prop_zipf_in_range;
    Alcotest.test_case "pareto respects x_min" `Quick test_pareto_min;
    Alcotest.test_case "clock accumulates per category" `Quick
      test_clock_accumulates;
    Alcotest.test_case "clock rejects negative charges" `Quick
      test_clock_rejects_negative;
    Alcotest.test_case "clock sub" `Quick test_clock_sub;
    Alcotest.test_case "size conversions" `Quick test_size_conversions;
    Alcotest.test_case "costs parallel scaling" `Quick test_costs_parallel;
  ]

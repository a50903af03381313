(* Tests of the work-stealing executor and of the harness determinism
   contract: scheduled execution returns results in submission order,
   so rendering (and therefore CSV/report output) is byte-identical to
   a serial run. *)

module Scheduler = Th_exec.Scheduler
module Cell = Th_exec.Cell
module Plan = Th_exec.Plan
module Deque = Th_exec.Deque
module Wall = Th_exec.Wall
module Csv = Th_metrics.Csv
module Setups = Th_baselines.Setups
module Giraph_profiles = Th_workloads.Giraph_profiles
module Giraph_driver = Th_workloads.Giraph_driver
module Run_result = Th_workloads.Run_result

let run_all t thunks = Scheduler.run_cells t (List.map Cell.make thunks)

let test_results_in_submission_order () =
  Scheduler.with_scheduler ~jobs:4 (fun t ->
      let thunks =
        List.init 32 (fun i () ->
            (* Stagger so later submissions tend to finish first. *)
            if i mod 4 = 0 then Unix.sleepf 0.002;
            i * i)
      in
      let results = run_all t thunks in
      Alcotest.(check (list int))
        "squares in order"
        (List.init 32 (fun i -> i * i))
        results)

let test_exception_propagates () =
  Scheduler.with_scheduler ~jobs:4 (fun t ->
      Alcotest.check_raises "cell exception re-raised" (Failure "boom")
        (fun () ->
          ignore
            (run_all t
               [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]));
      (* The scheduler survives a failing batch. *)
      Alcotest.(check (list int))
        "scheduler reusable after failure" [ 7 ]
        (run_all t [ (fun () -> 7) ]))

let test_serial_scheduler () =
  Scheduler.with_scheduler ~jobs:1 (fun t ->
      Alcotest.(check (list int))
        "jobs=1 runs in the calling domain" [ 1; 2; 3 ]
        (run_all t [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ]))

let test_invalid_jobs () =
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Scheduler.create: jobs must be >= 1") (fun () ->
      ignore (Scheduler.create ~jobs:0 ()))

let test_wall_clock_monotonic () =
  let t0 = Wall.now_s () in
  Unix.sleepf 0.001;
  let dt = Wall.elapsed_s ~since:t0 in
  Alcotest.(check bool) "elapsed time is positive" true (dt > 0.0)

(* The determinism contract end to end: the same Giraph cell, with a
   fixed seed, produces byte-identical CSV whether computed serially or
   on a 4-domain scheduler. *)
let giraph_cell seed () =
  let p = Giraph_profiles.bfs in
  let s =
    Setups.giraph_teraheap ~h1_gb:p.Giraph_profiles.th_h1_gb
      ~dr2_gb:p.Giraph_profiles.th_dr2_gb ()
  in
  Giraph_driver.run ~label:"BFS determinism" s.Setups.rt ~mode:s.Setups.mode
    ~scale:0.1 ~seed p

let csv_of_results results =
  Csv.to_string ~header:Csv.breakdown_header
    (List.map
       (fun (r : Run_result.t) ->
         Csv.breakdown_row ~label:r.Run_result.label r.Run_result.breakdown)
       results)

let test_scheduled_csv_identical () =
  let seed = 42L in
  let cells = [ giraph_cell seed; giraph_cell seed; giraph_cell seed ] in
  let serial = csv_of_results (List.map (fun f -> f ()) cells) in
  let scheduled =
    Scheduler.with_scheduler ~jobs:4 (fun t -> csv_of_results (run_all t cells))
  in
  Alcotest.(check string) "serial and scheduled CSV bytes" serial scheduled

(* ------------------------------------------------------------------ *)
(* Deque: owner pops the bottom (LIFO), thieves steal the top (FIFO).  *)

let test_deque_lifo_fifo () =
  let d = Deque.create ~capacity:4 in
  List.iter (Deque.push d) [ 1; 2; 3; 4 ];
  Alcotest.(check (option int)) "thief steals the oldest" (Some 1)
    (Deque.steal d);
  Alcotest.(check (option int)) "owner pops the newest" (Some 4) (Deque.pop d);
  Alcotest.(check (option int)) "steal again" (Some 2) (Deque.steal d);
  Alcotest.(check (option int)) "pop the last" (Some 3) (Deque.pop d);
  Alcotest.(check (option int)) "pop empty" None (Deque.pop d);
  Alcotest.(check (option int)) "steal empty" None (Deque.steal d);
  Alcotest.check_raises "push past capacity"
    (Invalid_argument "Deque.push: capacity exceeded") (fun () ->
      let d = Deque.create ~capacity:1 in
      Deque.push d 1;
      Deque.push d 2)

(* ------------------------------------------------------------------ *)
(* Scheduler: the steal path, forced deterministically with [pin].     *)

(* Every chunk is pinned onto domain 1, so the submitting domain (0)
   starts with an empty deque and can only make progress by stealing. *)
let test_forced_steals () =
  Scheduler.with_scheduler ~jobs:2 (fun t ->
      let cells =
        List.init 16 (fun i ->
            Cell.make ~label:(Printf.sprintf "steal-%d" i) ~lane:i (fun () ->
                Unix.sleepf 0.002;
                i))
      in
      let results = Scheduler.run_cells ~pin:(fun _ -> 1) ~chunk_max:1 t cells in
      Alcotest.(check (list int))
        "submission order despite steals"
        (List.init 16 Fun.id) results;
      let stats = Scheduler.last_batch t in
      Alcotest.(check int) "one chunk per cell" 16 stats.Scheduler.chunks;
      Alcotest.(check bool)
        "the idle domain stole work" true
        (stats.Scheduler.steals > 0);
      Alcotest.(check int)
        "per-cell wall times recorded" 16
        (Array.length stats.Scheduler.cell_wall_s);
      Alcotest.(check bool)
        "wall times are positive" true
        (Array.for_all (fun w -> w > 0.0) stats.Scheduler.cell_wall_s))

let test_pin_out_of_range () =
  Scheduler.with_scheduler ~jobs:2 (fun t ->
      Alcotest.check_raises "pin must land inside [0, jobs)"
        (Invalid_argument "Scheduler.run_cells: pin out of range") (fun () ->
          ignore
            (Scheduler.run_cells
               ~pin:(fun _ -> 2)
               t
               [ Cell.make (fun () -> 1) ])))

(* ------------------------------------------------------------------ *)
(* Plan: futures, grouped regrouping, read-before-run.                 *)

let test_plan_futures () =
  let b = Plan.create () in
  let x = Plan.cell b ~label:"x" ~cost:2.0 (fun () -> 21 * 2) in
  let ys = Plan.cell_list b ~label:"ys" [ (fun () -> "a"); (fun () -> "b") ] in
  let g =
    Plan.grouped b ~label:"g"
      [
        ("k0", List.init 3 (fun i () -> i));
        ("k1", []);
        ("k2", List.init 2 (fun i () -> 10 + i));
      ]
  in
  Alcotest.(check int) "cell count" 8 (Plan.cell_count b);
  let rendered = Buffer.create 64 in
  let section =
    Plan.seal b ~render:(fun () ->
        Buffer.add_string rendered (string_of_int (Plan.get x));
        List.iter (Buffer.add_string rendered) (Plan.get ys);
        List.iter
          (fun (k, vs) ->
            Buffer.add_string rendered
              (Printf.sprintf "%s=%s" k
                 (String.concat "+" (List.map string_of_int vs))))
          (Plan.get g))
  in
  Scheduler.with_scheduler ~jobs:4 (fun t -> Plan.run_section t section);
  Alcotest.(check string)
    "futures resolve in submission order, groups regroup exactly"
    "42abk0=0+1+2k1=k2=10+11" (Buffer.contents rendered)

let test_plan_get_before_run () =
  let b = Plan.create () in
  let x = Plan.cell b ~label:"early" (fun () -> 1) in
  Alcotest.check_raises "future read before the batch"
    (Failure "Plan.get: cell \"early\" read before the batch executed it")
    (fun () -> ignore (Plan.get x))

(* ------------------------------------------------------------------ *)
(* Property: for ANY cost vector, chunking and jobs count, the
   scheduler returns submission-order results and a render over those
   results is byte-identical to the serial reference.                  *)

let prop_scheduler_deterministic =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 0 40) (int_range (-5) 80))
        (int_range 1 6)
        (oneofl [ 1; 2; 4; 8 ]))
  in
  let arb =
    QCheck.make
      ~print:(fun (costs, chunk_max, jobs) ->
        Printf.sprintf "costs(x0.1)=[%s] chunk_max=%d jobs=%d"
          (String.concat ";" (List.map string_of_int costs))
          chunk_max jobs)
      gen
  in
  QCheck.Test.make ~count:40
    ~name:"random cell DAGs render byte-identically at any jobs" arb
    (fun (deci_costs, chunk_max, jobs) ->
      let cells =
        List.mapi
          (fun i dc ->
            (* Negative and zero hints exercise the default-cost path. *)
            let cost = float_of_int dc /. 10.0 in
            Cell.make ~label:(string_of_int i) ~cost ~lane:i (fun () ->
                (i * 31) + dc))
          deci_costs
      in
      let render results =
        String.concat "," (List.map string_of_int results)
      in
      let serial =
        render (List.mapi (fun i dc -> (i * 31) + dc) deci_costs)
      in
      let scheduled =
        Scheduler.with_scheduler ~jobs (fun t ->
            render (Scheduler.run_cells ~chunk_max t cells))
      in
      String.equal serial scheduled)

let suite =
  [
    Alcotest.test_case "results in submission order" `Quick
      test_results_in_submission_order;
    Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
    Alcotest.test_case "jobs=1 serial path" `Quick test_serial_scheduler;
    Alcotest.test_case "jobs=0 rejected" `Quick test_invalid_jobs;
    Alcotest.test_case "wall clock is monotonic" `Quick
      test_wall_clock_monotonic;
    Alcotest.test_case "pooled CSV identical to serial" `Slow
      test_scheduled_csv_identical;
    Alcotest.test_case "deque LIFO owner / FIFO thief" `Quick
      test_deque_lifo_fifo;
    Alcotest.test_case "pinned batch forces steals" `Quick test_forced_steals;
    Alcotest.test_case "pin out of range rejected" `Quick test_pin_out_of_range;
    Alcotest.test_case "plan futures and grouped regroup" `Quick
      test_plan_futures;
    Alcotest.test_case "plan future read before run" `Quick
      test_plan_get_before_run;
    QCheck_alcotest.to_alcotest prop_scheduler_deterministic;
  ]

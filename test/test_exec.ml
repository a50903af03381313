(* Tests of the process scheduler and of the harness determinism
   contract: scheduled execution returns results in submission order,
   so rendering (and therefore CSV/report output) is byte-identical to
   a serial run; and a failing cell, a dead worker or a result that
   cannot be marshalled fails the batch by the cell's label. *)

module Scheduler = Th_exec.Scheduler
module Cell = Th_exec.Cell
module Plan = Th_exec.Plan
module Wall = Th_exec.Wall
module Csv = Th_metrics.Csv
module Setups = Th_baselines.Setups
module Giraph_profiles = Th_workloads.Giraph_profiles
module Giraph_driver = Th_workloads.Giraph_driver
module Run_result = Th_workloads.Run_result

let run_all ~jobs thunks =
  fst (Scheduler.run_cells ~jobs (List.map (fun f -> Cell.make f) thunks))

let contains_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* The [Failure] message a failing batch raises, or the test fails. *)
let batch_failure ~jobs cells =
  match Scheduler.run_cells ~jobs cells with
  | _ -> Alcotest.fail "the batch did not fail"
  | exception Failure msg -> msg

(* Every worker of a finished batch, failed or not, has been reaped. *)
let check_no_child_left () =
  Alcotest.(check bool)
    "no worker process left" true
    (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false)

let test_results_in_submission_order () =
  let thunks =
    List.init 32 (fun i () ->
        (* Stagger so later submissions tend to finish first. *)
        if i mod 4 = 0 then Unix.sleepf 0.002;
        i * i)
  in
  Alcotest.(check (list int))
    "squares in order"
    (List.init 32 (fun i -> i * i))
    (run_all ~jobs:4 thunks)

let test_exception_propagates () =
  let msg =
    batch_failure ~jobs:4
      [
        Cell.make ~label:"one" (fun () -> 1);
        Cell.make ~label:"boom-cell" (fun () -> failwith "boom");
        Cell.make ~label:"three" (fun () -> 3);
      ]
  in
  Alcotest.(check bool) "names the failing cell" true
    (contains_sub msg "\"boom-cell\"");
  Alcotest.(check bool) "carries the exception text" true
    (contains_sub msg "boom");
  (* A failed batch leaves nothing behind: the next one runs. *)
  Alcotest.(check (list int))
    "next batch runs after a failure" [ 7 ]
    (run_all ~jobs:4 [ (fun () -> 7) ])

let test_dead_worker_fails_batch () =
  let msg =
    batch_failure ~jobs:2
      [
        Cell.make ~label:"fine" (fun () -> 1);
        Cell.make ~label:"exits" (fun () -> Unix._exit 3);
        Cell.make ~label:"after" (fun () -> 2);
      ]
  in
  Alcotest.(check bool) "names the cell whose worker died" true
    (contains_sub msg "\"exits\"");
  Alcotest.(check bool) "reports the exit code" true
    (contains_sub msg "code 3");
  check_no_child_left ()

let test_closure_result_fails_batch () =
  let msg =
    batch_failure ~jobs:2
      [
        Cell.make ~label:"plain" (fun () -> None);
        Cell.make ~label:"closure" (fun () ->
            let pid = Unix.getpid () in
            Some (fun x -> x + pid));
      ]
  in
  Alcotest.(check bool) "names the cell" true
    (contains_sub msg "\"closure\"");
  Alcotest.(check bool) "says why" true (contains_sub msg "marshal");
  check_no_child_left ()

let test_serial_scheduler () =
  Alcotest.(check (list int))
    "jobs=1 runs every cell on one worker" [ 1; 2; 3 ]
    (run_all ~jobs:1 [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ])

let test_invalid_jobs () =
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Scheduler.run_cells: jobs must be >= 1") (fun () ->
      ignore (Scheduler.run_cells ~jobs:0 ([] : int Cell.t list)))

let test_wall_clock_monotonic () =
  let t0 = Wall.now_s () in
  Unix.sleepf 0.001;
  let dt = Wall.elapsed_s ~since:t0 in
  Alcotest.(check bool) "elapsed time is positive" true (dt > 0.0)

(* The determinism contract end to end: the same Giraph cell, with a
   fixed seed, produces byte-identical CSV whether computed serially or
   on 4 worker processes. *)
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
  let scheduled = csv_of_results (run_all ~jobs:4 cells) in
  Alcotest.(check string) "serial and scheduled CSV bytes" serial scheduled

(* ------------------------------------------------------------------ *)
(* Scheduler: concurrent claims and the longest-first claim order.     *)

(* Each of the two cells signals its own pipe, then waits for the
   other's byte, so the batch can only finish if two workers run them
   at the same time. A serial dispatch would leave the first cell
   waiting on a cell that never starts: the bounded wait then fails the
   test instead of hanging. The pipes exist before the batch, so both
   workers inherit them. *)
let test_concurrent_claim () =
  let a_r, a_w = Unix.pipe () and b_r, b_w = Unix.pipe () in
  let cell ~label ~mine ~peer =
    Cell.make ~label (fun () ->
        ignore (Unix.write_substring mine "x" 0 1 : int);
        match Unix.select [ peer ] [] [] 5.0 with
        | [], _, _ -> false
        | _ -> true)
  in
  let saw_peer, stats =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ a_r; a_w; b_r; b_w ])
      (fun () ->
        Scheduler.run_cells ~jobs:2
          [
            cell ~label:"a" ~mine:a_w ~peer:b_r;
            cell ~label:"b" ~mine:b_w ~peer:a_r;
          ])
  in
  Alcotest.(check (list bool))
    "each cell saw the other start" [ true; true ] saw_peer;
  Alcotest.(check int) "cells counted" 2 stats.Scheduler.cells;
  Alcotest.(check bool)
    "wall times recorded and positive" true
    (Array.length stats.Scheduler.cell_wall_s = 2
    && Array.for_all (fun w -> w > 0.0) stats.Scheduler.cell_wall_s)

(* With one worker the claim order is the execution order: descending
   cost, ties in submission order. Each cell returns the monotonic time
   it started, which orders them across processes. *)
let test_claim_order () =
  let costs = [ 1.0; 5.0; 2.0; 5.0; 1.0; 9.0 ] in
  let cells =
    List.mapi
      (fun i cost ->
        Cell.make ~label:(string_of_int i) ~cost (fun () -> (i, Wall.now_ns ())))
      costs
  in
  let results, _ = Scheduler.run_cells ~jobs:1 cells in
  Alcotest.(check (list int))
    "results in submission order" [ 0; 1; 2; 3; 4; 5 ] (List.map fst results);
  Alcotest.(check (list int))
    "cells ran longest-first, stable on submission index"
    [ 5; 1; 3; 2; 0; 4 ]
    (List.map fst
       (List.sort (fun (_, a) (_, b) -> Int64.compare a b) results))

(* ------------------------------------------------------------------ *)
(* Plan: futures, grouped regrouping, read-before-run.                 *)

let test_plan_futures () =
  let b = Plan.create () in
  let x = Plan.cell b ~label:"x" ~cost:2.0 (fun () -> 21 * 2) in
  let ys = Plan.cell_list b ~label:"ys" [ (fun () -> "a"); (fun () -> "b") ] in
  let g =
    Plan.grouped_costed b ~label:"g"
      [
        ("k0", List.init 3 (fun i -> (1.0, fun () -> i)));
        ("k1", []);
        ("k2", List.init 2 (fun i -> (1.0, fun () -> 10 + i)));
      ]
  in
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
  let stats = Plan.run ~jobs:4 [ section ] in
  Alcotest.(check int) "cell count" 8 stats.Scheduler.cells;
  Plan.render section;
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
(* Property: for ANY cost vector and jobs count, the
   scheduler returns submission-order results and a render over those
   results is byte-identical to the serial reference.                  *)

let prop_scheduler_deterministic =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 40) (int_range (-5) 80))
        (oneofl [ 1; 2; 4; 8 ]))
  in
  let arb =
    QCheck.make
      ~print:(fun (costs, jobs) ->
        Printf.sprintf "costs(x0.1)=[%s] jobs=%d"
          (String.concat ";" (List.map string_of_int costs))
          jobs)
      gen
  in
  QCheck.Test.make ~count:40
    ~name:"random cell DAGs render byte-identically at any jobs" arb
    (fun (deci_costs, jobs) ->
      let cells =
        List.mapi
          (fun i dc ->
            (* Negative and zero hints exercise the default-cost path. *)
            let cost = float_of_int dc /. 10.0 in
            Cell.make ~label:(string_of_int i) ~cost (fun () -> (i * 31) + dc))
          deci_costs
      in
      let render results =
        String.concat "," (List.map string_of_int results)
      in
      let serial =
        render (List.mapi (fun i dc -> (i * 31) + dc) deci_costs)
      in
      let scheduled = render (fst (Scheduler.run_cells ~jobs cells)) in
      String.equal serial scheduled)

let suite =
  [
    Alcotest.test_case "results in submission order" `Quick
      test_results_in_submission_order;
    Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
    Alcotest.test_case "dead worker fails the batch" `Quick
      test_dead_worker_fails_batch;
    Alcotest.test_case "closure result fails the batch" `Quick
      test_closure_result_fails_batch;
    Alcotest.test_case "jobs=1 serial path" `Quick test_serial_scheduler;
    Alcotest.test_case "jobs=0 rejected" `Quick test_invalid_jobs;
    Alcotest.test_case "wall clock is monotonic" `Quick
      test_wall_clock_monotonic;
    Alcotest.test_case "pooled CSV identical to serial" `Slow
      test_scheduled_csv_identical;
    Alcotest.test_case "both domains claim concurrently" `Quick
      test_concurrent_claim;
    Alcotest.test_case "claim order is longest-first" `Quick test_claim_order;
    Alcotest.test_case "plan futures and grouped regroup" `Quick
      test_plan_futures;
    Alcotest.test_case "plan future read before run" `Quick
      test_plan_get_before_run;
    QCheck_alcotest.to_alcotest prop_scheduler_deterministic;
  ]

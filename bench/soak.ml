(* Chaos-soak harness: the long-horizon streaming service under phased
   fault schedules (wear-out, bursty), with and without the resilience
   layer, at --verify safepoint throughout. The A/B against the
   no-breaker baseline makes the resilience layer's effect visible in
   one table: same workload, same fault sequence, different outcome and
   pause tail. Cells run on the harness scheduler; all printing is
   serial and in submission order, so stdout is byte-identical for every
   --jobs. *)

open Th_sim
module Setups = Th_baselines.Setups
module Streaming_driver = Th_workloads.Streaming_driver
module Run_result = Th_workloads.Run_result
module Report = Th_metrics.Report
module Cdf = Th_metrics.Cdf
module Gc_stats = Th_psgc.Gc_stats
module Verify = Th_verify.Verify
module Monitor = Th_resilience.Monitor
module Breaker = Th_resilience.Breaker
module Slo = Th_resilience.Slo
module Plan = Th_exec.Plan

(* Bench-scale soak: long enough for the wear-out schedule to reach its
   terminal phase and for breaker open/close cycles to play out, short
   enough for CI. *)
let profile =
  {
    Th_workloads.Streaming_driver.soak with
    Th_workloads.Streaming_driver.name = "bench-soak";
    batches = 400;
    batch_interval_ns = 1e9;
  }

let schedules =
  [ ("wearout", Fault.wearout); ("bursty", Fault.bursty) ]

let cell ~schedule ~fplan ~with_breaker () =
  let s =
    Setups.streaming_teraheap ~faults:fplan
      ~h1_gb:profile.Th_workloads.Streaming_driver.h1_gb
      ~dr2_gb:profile.Th_workloads.Streaming_driver.dr2_gb ()
  in
  let v = Verify.attach s.Setups.s_rt Verify.Safepoint in
  let monitor =
    if with_breaker then Some (Monitor.attach ~slo:Slo.default s.Setups.s_rt)
    else None
  in
  let label =
    Printf.sprintf "%s/%s" schedule
      (if with_breaker then "breaker" else "no-breaker")
  in
  let r =
    Streaming_driver.run ~label ?h2_device:s.Setups.s_h2_device
      ?faults:s.Setups.s_faults ?monitor s.Setups.s_rt profile
  in
  (* The sanitizer holds the whole runtime; only its count is data. *)
  (r, Verify.violation_count v)

let outcome_name = function
  | Run_result.Completed -> "completed"
  | Run_result.Degraded -> "degraded"
  | Run_result.Oom -> "OOM"

let pause_samples (r : Run_result.t) =
  match r.Run_result.gc_stats with
  | None -> []
  | Some stats ->
      List.map
        (function
          | Gc_stats.Minor m -> m.duration_ns
          | Gc_stats.Major m -> m.duration_ns)
        (Gc_stats.cycles stats)

let ms ns = Printf.sprintf "%.3f" (ns /. 1e6)

let row ((r : Run_result.t), violations) =
  let pauses = pause_samples r in
  let pct p = Cdf.percentile pauses p in
  let trips, routed, slo_str =
    match r.Run_result.resilience with
    | None -> ("-", "-", "-")
    | Some s ->
        ( string_of_int s.Monitor.breaker.Breaker.trips,
          string_of_int
            (s.Monitor.moves_suppressed + s.Monitor.fallback_serializations
           + s.Monitor.deferred_batches),
          match s.Monitor.slo with
          | Some rep -> if rep.Slo.compliant then "PASS" else "FAIL"
          | None -> "-" )
  in
  [
    r.Run_result.label;
    outcome_name r.Run_result.outcome;
    ms (pct 50.0);
    ms (pct 99.0);
    ms (pct 99.9);
    trips;
    routed;
    slo_str;
    string_of_int violations;
  ]

(* The soak cells dominate any batch they join: weight them by batch
   count so the scheduler starts them first. *)
let soak_cost =
  float_of_int profile.Th_workloads.Streaming_driver.batches /. 10.0

let plan () =
  let b = Plan.create () in
  let results =
    Plan.costed_list b ~label:"soak"
      (List.concat_map
         (fun (schedule, fplan) ->
           [
             (soak_cost, cell ~schedule ~fplan ~with_breaker:true);
             (soak_cost, cell ~schedule ~fplan ~with_breaker:false);
           ])
         schedules)
  in
  Plan.seal b ~render:(fun () ->
      let results = Plan.get results in
      Report.print_series
        ~title:
          (Printf.sprintf
             "Chaos soak: streaming service, %d batches, verify=safepoint \
              (pause tails in ms)"
             profile.Th_workloads.Streaming_driver.batches)
        ~header:
          [
            "cell"; "outcome"; "p50"; "p99"; "p999"; "trips"; "routed"; "slo";
            "violations";
          ]
        (List.map row results);
      List.iter
        (fun ((r : Run_result.t), _) ->
          match r.Run_result.resilience with
          | Some s when s.Monitor.breaker.Breaker.trips > 0 ->
              Format.printf "%s: %a@." r.Run_result.label Monitor.pp_summary s
          | Some _ | None -> ())
        results)

(* Policy tournament: every H2 placement policy runs every Spark and
   Giraph workload under identical setups, reporting end-to-end time, GC
   time and the H2 traffic the policies compete on (mutator read-back
   and read-modify-write), with the two-pass oracle as the per-workload
   upper bound. The oracle and lifetime entrants each run a recording/
   profiling pre-pass inside their cell; the lifetime profile is round-
   tripped through its on-disk serialization on the way, so the bench
   itself exercises the persistence format the tests lock down.

   Subset selection for smoke runs and tests (read once at plan-build
   time, before any cell executes):
     TH_TOURNAMENT_WORKLOADS  comma list of framework:name entries,
                              e.g. "spark:PR,giraph:BFS" (case-
                              insensitive; Spark and Giraph both have an
                              SSSP, hence the framework prefix)
     TH_TOURNAMENT_SCALE      dataset scale factor (default 1.0)       *)

open Th_sim
open Runners
module Policy = Th_policy.Policy
module Profile = Th_policy.Profile

type workload = Spark of Spark_profiles.t | Giraph of Giraph_profiles.t

let workload_name = function
  | Spark p -> "Spark-" ^ p.Spark_profiles.name
  | Giraph p -> "Giraph-" ^ p.Giraph_profiles.name

(* The env-filter key: "spark:pr", "giraph:bfs". *)
let workload_key = function
  | Spark p -> "spark:" ^ String.lowercase_ascii p.Spark_profiles.name
  | Giraph p -> "giraph:" ^ String.lowercase_ascii p.Giraph_profiles.name

let all_workloads =
  List.map (fun p -> Spark p) Spark_profiles.all
  @ List.map (fun p -> Giraph p) Giraph_profiles.all

let selected_workloads () =
  match Sys.getenv_opt "TH_TOURNAMENT_WORKLOADS" with
  | None | Some "" -> all_workloads
  | Some spec ->
      let wanted =
        String.split_on_char ',' spec
        |> List.map (fun s -> String.lowercase_ascii (String.trim s))
        |> List.filter (fun s -> s <> "")
      in
      let found =
        List.filter
          (fun w -> List.exists (String.equal (workload_key w)) wanted)
          all_workloads
      in
      if found = [] then
        invalid_arg
          (Printf.sprintf
             "TH_TOURNAMENT_WORKLOADS=%S matches no workload (keys: %s)" spec
             (String.concat ", " (List.map workload_key all_workloads)));
      found

let dataset_scale () =
  match Sys.getenv_opt "TH_TOURNAMENT_SCALE" with
  | None | Some "" -> 1.0
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0.0 -> f
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "TH_TOURNAMENT_SCALE=%S is not a positive number"
               s))

type entrant = Threshold | Lifetime | Gang | Two_q | Oracle

let entrants = [ Threshold; Lifetime; Gang; Two_q; Oracle ]

let entrant_name = function
  | Threshold -> "threshold"
  | Lifetime -> "lifetime"
  | Gang -> "gang"
  | Two_q -> "2q"
  | Oracle -> "oracle"

(* Pre-pass entrants pay for two full runs. *)
let entrant_runs = function
  | Lifetime | Oracle -> 2.0
  | Threshold | Gang | Two_q -> 1.0

let run_with ~scale w policy =
  match w with
  | Spark p -> run_spark ~dataset_scale:scale ~policy Th p
  | Giraph p -> run_giraph ~scale ~policy G_th p

(* One tournament cell: construct the policy (and its pre-pass) inside
   the thunk — policies own mutable state, and one worker process runs
   several cells in the same heap, so each cell needs a fresh one. *)
let run_cell ~scale w entrant =
  match entrant with
  | Threshold -> run_with ~scale w Policy.threshold
  | Lifetime ->
      let prof_policy, profile = Policy.profiler () in
      ignore (run_with ~scale w prof_policy : Run_result.t);
      let profile =
        match Profile.of_string (Profile.to_string profile) with
        | Ok p -> p
        | Error e -> failwith ("tournament: profile round-trip failed: " ^ e)
      in
      run_with ~scale w (Policy.lifetime profile)
  | Gang -> run_with ~scale w (Policy.gang_locality ())
  | Two_q -> run_with ~scale w (Policy.two_q ())
  | Oracle ->
      let rec_policy, future = Policy.recording () in
      ignore (run_with ~scale w rec_policy : Run_result.t);
      run_with ~scale w (Policy.oracle future)

let workload_cost ~scale w =
  match w with
  | Spark p -> spark_cost ~dataset_scale:scale p
  | Giraph p -> giraph_cost ~scale p

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let mib b = float_of_int b /. 1048576.0

let gc_seconds (r : Run_result.t) =
  match r.Run_result.breakdown with
  | Some b -> (b.Clock.minor_gc_ns +. b.Clock.major_gc_ns) /. 1e9
  | None -> nan

let h2_readback (r : Run_result.t) =
  match r.Run_result.h2_stats with
  | Some s -> s.Th_core.H2.readback_bytes
  | None -> 0

let h2_rmw (r : Run_result.t) =
  match r.Run_result.h2_stats with
  | Some s -> s.Th_core.H2.rmw_bytes
  | None -> 0

let h2_moved (r : Run_result.t) =
  match r.Run_result.h2_stats with
  | Some s -> s.Th_core.H2.bytes_moved
  | None -> 0

let dev_read (r : Run_result.t) =
  match r.Run_result.h2_device with
  | Some d -> d.Th_device.Device.bytes_read
  | None -> 0

let print_workload w (results : (entrant * Run_result.t) list) =
  Printf.printf "\n--- Tournament / %s ---\n" (workload_name w);
  Printf.printf "%-10s %9s %8s %12s %9s %11s %9s\n" "policy" "total(s)"
    "gc(s)" "readback(MB)" "rmw(MB)" "devread(MB)" "moved(MB)";
  List.iter
    (fun (e, r) ->
      Printf.printf "%-10s %9.2f %8.2f %12.1f %9.1f %11.1f %9.1f\n"
        (entrant_name e) (total_seconds r) (gc_seconds r)
        (mib (h2_readback r))
        (mib (h2_rmw r))
        (mib (dev_read r))
        (mib (h2_moved r)))
    results;
  match List.assoc_opt Oracle results with
  | None -> ()
  | Some o ->
      let ot = total_seconds o and orb = h2_readback o in
      List.iter
        (fun (e, r) ->
          if e <> Oracle then
            Printf.printf
              "  oracle gap: %-10s %+6.1f%% total, %+9.1f MB readback\n"
              (entrant_name e)
              ((total_seconds r -. ot) /. ot *. 100.0)
              (mib (h2_readback r - orb)))
        results

let plan () =
  let b = Plan.create () in
  let scale = dataset_scale () in
  let workloads = selected_workloads () in
  let groups =
    Plan.grouped_costed b ~label:"tournament"
      (List.map
         (fun w ->
           let c = workload_cost ~scale w in
           ( w,
             List.map
               (fun e ->
                 (c *. entrant_runs e, fun () -> run_cell ~scale w e))
               entrants ))
         workloads)
  in
  Plan.seal b ~render:(fun () ->
      List.iter
        (fun (w, results) -> print_workload w (List.combine entrants results))
        (Plan.get groups))

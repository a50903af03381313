(* Figure 10: CDFs of the percentage of live objects (top) and of space
   occupied by live objects (bottom) per H2 region, for 16 MB and 256 MB
   regions (scaled: 256 KiB and 4 MiB), across the five Giraph
   workloads. Reclaimed regions contribute 0 % samples. *)

open Runners
module H2 = Th_core.H2
module Report = Th_metrics.Report
module Cdf = Th_metrics.Cdf
module Obj_ = Th_objmodel.Heap_object
module Roots = Th_objmodel.Roots
open Th_sim

(* One Giraph run returning Figure-10 samples under a full-reachability
   oracle (the paper instruments liveness the same way). *)
let samples_for (p : Giraph_profiles.t) ~region_size =
  let costs = costs () in
  let config = { H2.default_config with H2.region_size } in
  let s =
    Setups.giraph_teraheap ~costs ~h2_config:config
      ~h1_gb:p.Giraph_profiles.th_h1_gb ~dr2_gb:p.Giraph_profiles.th_dr2_gb ()
  in
  let result =
    Giraph_driver.run
      ~label:(p.Giraph_profiles.name ^ " region-stats")
      s.Setups.rt ~mode:s.Setups.mode p
  in
  ignore result;
  match Runtime.h2 s.Setups.rt with
  | None -> []
  | Some h2 ->
      let roots = Roots.to_list (Runtime.roots s.Setups.rt) in
      let reachable = Obj_.reachable ~roots ~fence_h2:false in
      H2.harvest_region_samples h2 ~is_live:(fun o ->
          Hashtbl.mem reachable o.Obj_.id)

let print_cdf title samples =
  let pts = Cdf.points ~buckets:10 samples in
  let header = "regions %" :: List.map (fun (x, _) -> Printf.sprintf "%.0f" x) pts in
  let row = title :: List.map (fun (_, v) -> Printf.sprintf "%.0f%%" v) pts in
  Report.print_series ~title:("Fig 10: " ^ title) ~header [ row ]

let plan () =
  let b = Plan.create () in
  let groups =
    Plan.grouped_costed b ~label:"fig10"
      (List.map
         (fun mb_scaled ->
           ( mb_scaled,
             List.map
               (fun (p : Giraph_profiles.t) ->
                 ( giraph_cost p,
                   fun () -> samples_for p ~region_size:(Size.kib mb_scaled) ))
               Giraph_profiles.all ))
         [ 256; 4096 ])
  in
  Plan.seal b ~render:(fun () ->
      List.iter
        (fun (mb_scaled, per_profile) ->
          let region_size = Size.kib mb_scaled in
          Printf.printf "\n-- region size %s (paper: %d MB) --\n"
            (Size.to_string region_size)
            (mb_scaled * 64 / 1024);
          List.iter2
            (fun (p : Giraph_profiles.t) samples ->
              let live_obj = List.map (fun s -> s.H2.live_object_pct) samples in
              let live_space =
                List.map (fun s -> s.H2.live_space_pct) samples
              in
              print_cdf
                (Printf.sprintf "%s live objects/region"
                   p.Giraph_profiles.name)
                live_obj;
              print_cdf
                (Printf.sprintf "%s live space/region" p.Giraph_profiles.name)
                live_space)
            Giraph_profiles.all per_profile)
        (Plan.get groups))

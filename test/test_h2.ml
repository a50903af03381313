(* Tests for the H2 region heap: allocation, labels, dependency lists,
   liveness propagation, bulk reclamation, Union-Find mode, metadata. *)

open Th_sim
module Obj_ = Th_objmodel.Heap_object
module H2 = Th_core.H2
module Device = Th_device.Device

let next_id = ref 0

let mk ?(size = 1024) () =
  incr next_id;
  Obj_.create ~id:!next_id ~size ()

let fresh ?(config = H2.default_config) () =
  let clock = Clock.create () in
  let device = Device.create clock Device.Nvme_ssd in
  H2.create ~config ~clock ~costs:Costs.default ~device
    ~dr2_bytes:(Size.mib 8) ()

let small_config =
  { H2.default_config with H2.region_size = Size.kib 64; capacity = Size.kib 512 }

let test_alloc_assigns_region_and_addr () =
  let h2 = fresh () in
  let a = mk () and b = mk () in
  H2.alloc h2 a ~label:1;
  H2.alloc h2 b ~label:1;
  Alcotest.(check bool) "same region for same label" true
    (a.Obj_.h2_region = b.Obj_.h2_region);
  Alcotest.(check bool) "addresses ascend" true (b.Obj_.addr > a.Obj_.addr);
  Alcotest.(check bool) "location set" true (a.Obj_.loc = Obj_.In_h2)

let test_labels_get_distinct_regions () =
  let h2 = fresh () in
  let a = mk () and b = mk () in
  H2.alloc h2 a ~label:1;
  H2.alloc h2 b ~label:2;
  Alcotest.(check bool) "different regions" true
    (a.Obj_.h2_region <> b.Obj_.h2_region)

let test_region_overflow_opens_new_region () =
  let h2 = fresh ~config:small_config () in
  let objs = List.init 80 (fun _ -> mk ~size:1024 ()) in
  List.iter (fun o -> H2.alloc h2 o ~label:5) objs;
  let s = H2.stats h2 in
  Alcotest.(check bool) "several regions opened" true
    (s.H2.regions_allocated >= 2);
  (* No object ever spans a region boundary. *)
  List.iter
    (fun (o : Obj_.t) ->
      Alcotest.(check bool) "object within region" true
        (o.Obj_.addr + Obj_.total_size o <= small_config.H2.region_size))
    objs

let test_object_bigger_than_region_rejected () =
  let h2 = fresh ~config:small_config () in
  let o = mk ~size:(Size.kib 128) () in
  Alcotest.check_raises "too big"
    (Invalid_argument "H2.alloc: object larger than an H2 region") (fun () ->
      H2.alloc h2 o ~label:1)

let test_h2_exhaustion () =
  let h2 = fresh ~config:small_config () in
  let blew = ref false in
  (try
     for _ = 1 to 1000 do
       H2.alloc h2 (mk ~size:(Size.kib 32) ()) ~label:9
     done
   with H2.Out_of_h2_space -> blew := true);
  Alcotest.(check bool) "exhaustion raises" true !blew

let test_liveness_and_reclaim () =
  let h2 = fresh () in
  let a = mk () and b = mk () in
  H2.alloc h2 a ~label:1;
  H2.alloc h2 b ~label:2;
  H2.clear_live_bits h2;
  H2.mark_live_from_h1 h2 a;
  let freed = H2.free_dead_regions h2 ~on_free:(fun o -> o.Obj_.loc <- Obj_.Freed) in
  Alcotest.(check int) "label-2 region reclaimed" 1 freed;
  Alcotest.(check bool) "a alive" false (Obj_.is_freed a);
  Alcotest.(check bool) "b freed in bulk" true (Obj_.is_freed b)

let test_dependency_propagation () =
  (* Region X -> Y -> Z: marking X live keeps Y and Z. *)
  let h2 = fresh () in
  let x = mk () and y = mk () and z = mk () in
  H2.alloc h2 x ~label:1;
  H2.alloc h2 y ~label:2;
  H2.alloc h2 z ~label:3;
  H2.add_dependency h2 ~src_region:x.Obj_.h2_region ~dst_region:y.Obj_.h2_region;
  H2.add_dependency h2 ~src_region:y.Obj_.h2_region ~dst_region:z.Obj_.h2_region;
  H2.clear_live_bits h2;
  H2.mark_live_from_h1 h2 x;
  Alcotest.(check int) "nothing reclaimed" 0
    (H2.free_dead_regions h2 ~on_free:(fun _ -> ()))

let test_dependency_direction_matters () =
  (* X -> Y -> Z with only Z referenced from H1: X and Y are reclaimable
     (the paper's argument for directed dependency lists, §3.3). *)
  let h2 = fresh () in
  let x = mk () and y = mk () and z = mk () in
  H2.alloc h2 x ~label:1;
  H2.alloc h2 y ~label:2;
  H2.alloc h2 z ~label:3;
  H2.add_dependency h2 ~src_region:x.Obj_.h2_region ~dst_region:y.Obj_.h2_region;
  H2.add_dependency h2 ~src_region:y.Obj_.h2_region ~dst_region:z.Obj_.h2_region;
  H2.clear_live_bits h2;
  H2.mark_live_from_h1 h2 z;
  Alcotest.(check int) "X and Y reclaimed" 2
    (H2.free_dead_regions h2 ~on_free:(fun o -> o.Obj_.loc <- Obj_.Freed))

let uf_config = { H2.default_config with H2.reclaim_mode = H2.Region_groups }

let test_union_find_conservative () =
  (* Same X -> Y -> Z chain under Region_groups: the whole group stays
     alive when Z is referenced — direction is lost. *)
  let h2 = fresh ~config:uf_config () in
  let x = mk () and y = mk () and z = mk () in
  H2.alloc h2 x ~label:1;
  H2.alloc h2 y ~label:2;
  H2.alloc h2 z ~label:3;
  H2.add_dependency h2 ~src_region:x.Obj_.h2_region ~dst_region:y.Obj_.h2_region;
  H2.add_dependency h2 ~src_region:y.Obj_.h2_region ~dst_region:z.Obj_.h2_region;
  H2.clear_live_bits h2;
  H2.mark_live_from_h1 h2 z;
  Alcotest.(check int) "whole group retained" 0
    (H2.free_dead_regions h2 ~on_free:(fun _ -> ()))

let test_union_find_dead_group_reclaimed () =
  let h2 = fresh ~config:uf_config () in
  let x = mk () and y = mk () in
  H2.alloc h2 x ~label:1;
  H2.alloc h2 y ~label:2;
  H2.add_dependency h2 ~src_region:x.Obj_.h2_region ~dst_region:y.Obj_.h2_region;
  H2.clear_live_bits h2;
  Alcotest.(check int) "dead group reclaimed whole" 2
    (H2.free_dead_regions h2 ~on_free:(fun o -> o.Obj_.loc <- Obj_.Freed))

let test_reclaimed_region_reused () =
  let h2 = fresh ~config:small_config () in
  let a = mk () in
  H2.alloc h2 a ~label:1;
  let region = a.Obj_.h2_region in
  H2.clear_live_bits h2;
  ignore (H2.free_dead_regions h2 ~on_free:(fun o -> o.Obj_.loc <- Obj_.Freed));
  let b = mk () in
  H2.alloc h2 b ~label:7;
  Alcotest.(check int) "free region reused" region b.Obj_.h2_region;
  Alcotest.(check int) "fresh allocation pointer" 0 b.Obj_.addr

let test_backward_ref_marks_card () =
  let h2 = fresh () in
  let a = mk () in
  H2.alloc h2 a ~label:1;
  let ct = H2.card_table h2 in
  Alcotest.(check int) "clean initially" 0 (Th_core.H2_card_table.non_clean_count ct);
  H2.note_backward_ref h2 a;
  Alcotest.(check int) "dirty card" 1 (Th_core.H2_card_table.non_clean_count ct)

let test_move_advice () =
  let h2 = fresh () in
  H2.h2_move h2 ~label:3;
  Alcotest.(check bool) "advised" true (H2.move_advised h2 ~label:3);
  Alcotest.(check bool) "others not advised" false (H2.move_advised h2 ~label:4);
  H2.clear_move_advice h2 ~label:3;
  Alcotest.(check bool) "cleared" false (H2.move_advised h2 ~label:3)

let test_move_hint_disabled () =
  let cfg = { H2.default_config with H2.use_move_hint = false } in
  let h2 = fresh ~config:cfg () in
  H2.h2_move h2 ~label:3;
  Alcotest.(check bool) "NH config ignores h2_move" false
    (H2.move_advised h2 ~label:3)

let test_tag_root_registers () =
  let h2 = fresh () in
  let a = mk () in
  H2.h2_tag_root h2 a ~label:11;
  Alcotest.(check int) "label stored in header word" 11 a.Obj_.label;
  Alcotest.(check bool) "tracked as tagged root" true
    (List.memq a (H2.tagged_roots h2))

let test_tagged_roots_self_clean () =
  let h2 = fresh () in
  let a = mk () in
  H2.h2_tag_root h2 a ~label:11;
  H2.alloc h2 a ~label:11;
  Alcotest.(check int) "moved roots drop off the tagged list" 0
    (List.length (H2.tagged_roots h2))

let test_promotion_buffers_charge_compaction () =
  let clock = Clock.create () in
  let device = Device.create clock Device.Nvme_ssd in
  let h2 =
    H2.create ~config:H2.default_config ~clock ~costs:Costs.default ~device
      ~dr2_bytes:(Size.mib 8) ()
  in
  for _ = 1 to 100 do
    H2.alloc h2 (mk ()) ~label:1
  done;
  Alcotest.(check (float 0.0)) "placement itself charges no device time" 0.0
    (Clock.breakdown clock).Clock.major_gc_ns;
  H2.flush_promotion_buffers h2;
  Alcotest.(check bool) "flush writes to the device as major-GC time" true
    ((Clock.breakdown clock).Clock.major_gc_ns > 0.0);
  Alcotest.(check bool) "device saw the bytes" true
    ((Device.stats device).Device.bytes_written >= 100 * 1024)

let test_metadata_table5_values () =
  let mb region_mb =
    let b = H2.metadata_bytes_per_tb ~region_size:(Size.mib region_mb) in
    int_of_float (Float.round (float_of_int b /. 1048576.0))
  in
  Alcotest.(check (list int)) "Table 5"
    [ 417; 209; 104; 52; 26; 13; 7; 3; 2 ]
    (List.map mb [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ])

let test_stats_wasted_space_small () =
  let h2 = fresh ~config:small_config () in
  for _ = 1 to 60 do
    H2.alloc h2 (mk ~size:1000 ()) ~label:1
  done;
  let s = H2.stats h2 in
  (* Sealed-region waste stays below one object's size per region (§7.3:
     unused space 1-3%). *)
  Alcotest.(check bool) "waste bounded" true
    (s.H2.wasted_bytes < s.H2.regions_allocated * 1100)

let test_region_samples_on_reclaim () =
  let h2 = fresh () in
  let a = mk () in
  H2.alloc h2 a ~label:1;
  H2.clear_live_bits h2;
  ignore (H2.free_dead_regions h2 ~on_free:(fun o -> o.Obj_.loc <- Obj_.Freed));
  let samples = H2.harvest_region_samples h2 ~is_live:(fun _ -> true) in
  Alcotest.(check bool) "reclaimed region sampled at 0%" true
    (* Exact-zero sentinel: a reclaimed region reports literally 0.0.
       th-lint: allow float-equality *)
    (List.exists (fun s -> s.H2.live_object_pct = 0.0) samples)

let test_size_segregated_buckets () =
  let cfg =
    { small_config with H2.placement = H2.Size_segregated }
  in
  let h2 = fresh ~config:cfg () in
  let small = mk ~size:512 () in
  let large = mk ~size:(small_config.H2.region_size / 4) () in
  H2.alloc h2 small ~label:1;
  H2.alloc h2 large ~label:1;
  Alcotest.(check bool) "same label, different regions by size" true
    (small.Obj_.h2_region <> large.Obj_.h2_region);
  (* Under the default policy they share the label's open region. *)
  let h2' = fresh ~config:small_config () in
  let small' = mk ~size:512 () in
  let large' = mk ~size:(small_config.H2.region_size / 4) () in
  H2.alloc h2' small' ~label:1;
  H2.alloc h2' large' ~label:1;
  Alcotest.(check bool) "label-only shares the region" true
    (small'.Obj_.h2_region = large'.Obj_.h2_region)

let test_dynamic_thresholds_adapt () =
  let cfg = { H2.default_config with H2.dynamic_thresholds = true } in
  let h2 = fresh ~config:cfg () in
  Alcotest.(check (option (float 1e-9))) "starts at the configured low"
    (Some 0.5) (H2.low_threshold h2);
  (* Sustained pressure lowers the low threshold... *)
  H2.adapt_thresholds h2 ~live_ratio:0.95;
  Alcotest.(check (option (float 1e-9))) "lowered" (Some 0.45)
    (H2.low_threshold h2);
  (* ...comfortable headroom raises it again. *)
  H2.adapt_thresholds h2 ~live_ratio:0.2;
  H2.adapt_thresholds h2 ~live_ratio:0.2;
  Alcotest.(check (option (float 1e-9))) "raised back" (Some 0.55)
    (H2.low_threshold h2);
  (* Static configurations never move. *)
  let h2s = fresh () in
  H2.adapt_thresholds h2s ~live_ratio:0.95;
  Alcotest.(check (option (float 1e-9))) "static untouched" (Some 0.5)
    (H2.low_threshold h2s)

(* --------------------------------------------------------------- *)
(* Exhaustive state x event matrix for the 4-state card table.      *)

module HCT = Th_core.H2_card_table

let all_states = [ HCT.Clean; HCT.Dirty; HCT.Young_gen; HCT.Old_gen ]

let st_name = function
  | HCT.Clean -> "clean"
  | HCT.Dirty -> "dirty"
  | HCT.Young_gen -> "youngGen"
  | HCT.Old_gen -> "oldGen"

(* 16 segments of 4 KiB in 16 KiB stripes: 4 segments per stripe, so
   positions 0 and 3 of each stripe are boundary cards. *)
let mk_ct ~aligned =
  HCT.create ~segment_size:(Size.kib 4) ~stripe_aligned:aligned
    ~stripe_size:(Size.kib 16) ~capacity_bytes:(Size.kib 64) ()

(* Drive a segment into [st] from scratch; clear_range bypasses
   stickiness, so this works on boundary cards too. *)
let force ct ~seg st =
  HCT.clear_range ct ~lo:seg ~hi:(seg + 1);
  match st with
  | HCT.Clean -> ()
  | HCT.Dirty -> HCT.mark_dirty ct ~gaddr:(seg * HCT.segment_size ct)
  (* Every other state round-trips via set_state unchanged — the
     forwarding arm is the point of the helper.
     th-lint: allow catch-all-match *)
  | st -> HCT.set_state ct ~seg st

let scan_non_clean ct =
  let n = ref 0 in
  for seg = 0 to HCT.num_segments ct - 1 do
    if HCT.state ct ~seg <> HCT.Clean then incr n
  done;
  !n

let check_cell ct ~seg ~before ~op_name ~expected run =
  force ct ~seg before;
  run ();
  Alcotest.(check string)
    (Printf.sprintf "seg %d: %s, %s" seg (st_name before) op_name)
    (st_name expected)
    (st_name (HCT.state ct ~seg));
  Alcotest.(check int)
    (Printf.sprintf "non-clean count after %s from %s" op_name
       (st_name before))
    (scan_non_clean ct) (HCT.non_clean_count ct)

(* Every state x event cell on an interior segment of an aligned table:
   set_state always lands the target, the barrier always lands Dirty,
   bulk clear always lands Clean. *)
let matrix_cells ct ~seg ~sticky =
  List.iter
    (fun before ->
      List.iter
        (fun target ->
          let expected =
            if sticky && before = HCT.Dirty && target <> HCT.Dirty then
              HCT.Dirty
            else target
          in
          check_cell ct ~seg ~before
            ~op_name:("recompute to " ^ st_name target)
            ~expected
            (fun () -> HCT.set_state ct ~seg target))
        all_states;
      check_cell ct ~seg ~before ~op_name:"barrier" ~expected:HCT.Dirty
        (fun () -> HCT.mark_dirty ct ~gaddr:(seg * HCT.segment_size ct));
      check_cell ct ~seg ~before ~op_name:"bulk clear" ~expected:HCT.Clean
        (fun () -> HCT.clear_range ct ~lo:seg ~hi:(seg + 1)))
    all_states

let test_transition_matrix_aligned () =
  let ct = mk_ct ~aligned:true in
  (* Boundary position or not, aligned tables have no stickiness. *)
  List.iter (fun seg -> matrix_cells ct ~seg ~sticky:false) [ 4; 5; 7 ]

let test_transition_matrix_unaligned () =
  let ct = mk_ct ~aligned:false in
  (* Stripe 1 covers segments 4-7: 4 and 7 are boundary cards (sticky
     once dirty), 5 and 6 are interior and behave as if aligned. *)
  List.iter (fun seg -> matrix_cells ct ~seg ~sticky:true) [ 4; 7 ];
  List.iter (fun seg -> matrix_cells ct ~seg ~sticky:false) [ 5; 6 ]

let test_transition_hook_records_events () =
  let ct = mk_ct ~aligned:false in
  let log = ref [] in
  HCT.set_transition_hook ct
    (Some (fun ~seg ~before ~after ev -> log := (seg, before, after, ev) :: !log));
  (* Segment 0 is a boundary card: the suppressed sticky clean must be
     reported with after = Dirty and the requested target in the event. *)
  HCT.mark_dirty ct ~gaddr:0;
  HCT.set_state ct ~seg:0 HCT.Clean;
  HCT.clear_range ct ~lo:0 ~hi:1;
  HCT.set_transition_hook ct None;
  HCT.mark_dirty ct ~gaddr:0;
  Alcotest.(check bool) "hook saw barrier, sticky recompute, bulk clear" true
    (* Golden transition log: structural equality against the expected
       literal is exactly the assertion. th-lint: allow poly-compare *)
    (List.rev !log
    = [
        (0, HCT.Clean, HCT.Dirty, HCT.Barrier_dirty);
        (0, HCT.Dirty, HCT.Dirty, HCT.Recompute HCT.Clean);
        (0, HCT.Dirty, HCT.Clean, HCT.Bulk_clear);
      ])

let test_bulk_clear_skips_clean_notifications () =
  let ct = mk_ct ~aligned:true in
  HCT.mark_dirty ct ~gaddr:(5 * HCT.segment_size ct);
  let log = ref [] in
  HCT.set_transition_hook ct (Some (fun ~seg ~before:_ ~after:_ _ -> log := seg :: !log));
  HCT.clear_range ct ~lo:0 ~hi:HCT.(num_segments ct);
  Alcotest.(check (list int)) "only the non-clean segment reported" [ 5 ]
    (List.rev !log)

let suite =
  [
    Alcotest.test_case "alloc assigns region+addr" `Quick
      test_alloc_assigns_region_and_addr;
    Alcotest.test_case "labels get distinct regions" `Quick
      test_labels_get_distinct_regions;
    Alcotest.test_case "full region opens a new one" `Quick
      test_region_overflow_opens_new_region;
    Alcotest.test_case "objects never exceed a region" `Quick
      test_object_bigger_than_region_rejected;
    Alcotest.test_case "H2 exhaustion raises" `Quick test_h2_exhaustion;
    Alcotest.test_case "liveness + bulk reclaim" `Quick
      test_liveness_and_reclaim;
    Alcotest.test_case "dependency lists keep referenced regions" `Quick
      test_dependency_propagation;
    Alcotest.test_case "dependency direction enables reclaim" `Quick
      test_dependency_direction_matters;
    Alcotest.test_case "union-find groups are conservative" `Quick
      test_union_find_conservative;
    Alcotest.test_case "union-find reclaims dead groups" `Quick
      test_union_find_dead_group_reclaimed;
    Alcotest.test_case "reclaimed regions are reused" `Quick
      test_reclaimed_region_reused;
    Alcotest.test_case "backward refs dirty the card" `Quick
      test_backward_ref_marks_card;
    Alcotest.test_case "move advice bookkeeping" `Quick test_move_advice;
    Alcotest.test_case "NH config ignores h2_move" `Quick
      test_move_hint_disabled;
    Alcotest.test_case "tag_root registers key objects" `Quick
      test_tag_root_registers;
    Alcotest.test_case "tagged list self-cleans after moves" `Quick
      test_tagged_roots_self_clean;
    Alcotest.test_case "promotion buffers charge compaction I/O" `Quick
      test_promotion_buffers_charge_compaction;
    Alcotest.test_case "Table 5 metadata values" `Quick
      test_metadata_table5_values;
    Alcotest.test_case "region waste stays small" `Quick
      test_stats_wasted_space_small;
    Alcotest.test_case "reclaimed regions sampled at 0% live" `Quick
      test_region_samples_on_reclaim;
    Alcotest.test_case "size-segregated placement buckets by size" `Quick
      test_size_segregated_buckets;
    Alcotest.test_case "dynamic thresholds adapt" `Quick
      test_dynamic_thresholds_adapt;
    Alcotest.test_case "card transition matrix (aligned)" `Quick
      test_transition_matrix_aligned;
    Alcotest.test_case "card transition matrix (unaligned, sticky)" `Quick
      test_transition_matrix_unaligned;
    Alcotest.test_case "transition hook records events" `Quick
      test_transition_hook_records_events;
    Alcotest.test_case "bulk clear reports only non-clean cards" `Quick
      test_bulk_clear_skips_clean_notifications;
  ]

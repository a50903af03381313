(* Unit and integration tests for the MiniJVM runtime and the PS collector. *)

open Th_sim
module Obj_ = Th_objmodel.Heap_object
module H1_heap = Th_minijvm.H1_heap
module Runtime = Th_psgc.Runtime
module Gc_stats = Th_psgc.Gc_stats
module H2 = Th_core.H2
module Device = Th_device.Device

let make_rt ?collector ?(heap_bytes = Size.mib 8) () =
  let clock = Clock.create () in
  let costs = Costs.default in
  let heap = H1_heap.create ~heap_bytes () in
  Runtime.create ?collector ~clock ~costs ~heap ()

let make_teraheap_rt ?(heap_bytes = Size.mib 8) ?(h2_config = H2.default_config)
    () =
  let clock = Clock.create () in
  let costs = Costs.default in
  let heap = H1_heap.create ~heap_bytes () in
  let device = Device.create clock Device.Nvme_ssd in
  let h2 =
    H2.create ~config:h2_config ~clock ~costs ~device ~dr2_bytes:(Size.mib 16)
      ()
  in
  (Runtime.create ~h2 ~clock ~costs ~heap (), h2)

let test_alloc_in_eden () =
  let rt = make_rt () in
  let o = Runtime.alloc rt ~size:100 () in
  Alcotest.(check bool) "in eden" true (o.Obj_.loc = Obj_.Eden);
  Alcotest.(check int)
    "eden accounting"
    (Obj_.total_size o)
    (Runtime.heap rt).H1_heap.eden_used

let test_large_object_goes_old () =
  let rt = make_rt () in
  let heap = Runtime.heap rt in
  let big = (heap.H1_heap.eden_capacity / 2) + 1024 in
  let o = Runtime.alloc rt ~kind:Obj_.Array_data ~size:big () in
  Alcotest.(check bool) "in old gen" true (o.Obj_.loc = Obj_.Old)

let test_minor_gc_reclaims_garbage () =
  let rt = make_rt () in
  let heap = Runtime.heap rt in
  (* Fill eden several times over with unreachable objects: allocation
     must keep succeeding thanks to minor GCs. *)
  for _ = 1 to 1000 do
    ignore (Runtime.alloc rt ~size:(Size.kib 8) ())
  done;
  Alcotest.(check bool)
    "minor GCs happened" true
    (Gc_stats.minor_count (Runtime.stats rt) > 0);
  Alcotest.(check bool)
    "old gen stayed small" true
    (heap.H1_heap.old_used < heap.H1_heap.old_capacity / 4)

let test_live_objects_survive_minor_gc () =
  let rt = make_rt () in
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  let kept = Runtime.alloc rt ~size:128 () in
  Runtime.write_ref rt holder kept;
  Runtime.minor_gc rt;
  Alcotest.(check bool) "holder alive" false (Obj_.is_freed holder);
  Alcotest.(check bool) "kept alive" false (Obj_.is_freed kept);
  Alcotest.(check bool) "kept left eden" true (kept.Obj_.loc <> Obj_.Eden)

let test_tenuring_promotes () =
  let rt = make_rt () in
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  let kept = Runtime.alloc rt ~size:128 () in
  Runtime.write_ref rt holder kept;
  for _ = 1 to (Runtime.heap rt).H1_heap.tenure_threshold + 1 do
    Runtime.minor_gc rt
  done;
  Alcotest.(check bool) "promoted to old" true (kept.Obj_.loc = Obj_.Old)

let test_old_to_young_ref_keeps_young_alive () =
  let rt = make_rt () in
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  (* Tenure the holder. *)
  for _ = 1 to (Runtime.heap rt).H1_heap.tenure_threshold + 1 do
    Runtime.minor_gc rt
  done;
  Alcotest.(check bool) "holder tenured" true (holder.Obj_.loc = Obj_.Old);
  (* Store an old->young reference; the write barrier must dirty a card
     so the young target survives minor GC. *)
  let young = Runtime.alloc rt ~size:256 () in
  Runtime.write_ref rt holder young;
  Runtime.minor_gc rt;
  Alcotest.(check bool) "young target alive" false (Obj_.is_freed young)

let test_major_gc_compacts_old_gen () =
  let rt = make_rt () in
  let heap = Runtime.heap rt in
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  (* Create old-generation garbage: tenured objects that later die. *)
  let doomed = ref [] in
  for _ = 1 to 20 do
    let o = Runtime.alloc rt ~size:(Size.kib 4) () in
    Runtime.write_ref rt holder o;
    doomed := o :: !doomed
  done;
  for _ = 1 to heap.H1_heap.tenure_threshold + 1 do
    Runtime.minor_gc rt
  done;
  List.iter (fun o -> Runtime.unlink_ref rt holder o) !doomed;
  let used_before = heap.H1_heap.old_used in
  Runtime.major_gc rt;
  Alcotest.(check bool)
    "old gen shrank" true
    (heap.H1_heap.old_used < used_before);
  List.iter
    (fun o -> Alcotest.(check bool) "doomed freed" true (Obj_.is_freed o))
    !doomed;
  Alcotest.(check bool) "holder survived" false (Obj_.is_freed holder);
  Alcotest.(check int)
    "old_used equals old_top after compaction" heap.H1_heap.old_used
    heap.H1_heap.old_top

let test_oom_raised () =
  let rt = make_rt ~heap_bytes:(Size.mib 2) () in
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  let blew_up =
    try
      for _ = 1 to 10_000 do
        let o = Runtime.alloc rt ~size:(Size.kib 16) () in
        Runtime.write_ref rt holder o
      done;
      false
    with Runtime.Out_of_memory _ -> true
  in
  Alcotest.(check bool) "OOM raised" true blew_up

let test_h2_move_via_hints () =
  let rt, h2 = make_teraheap_rt () in
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  (* A partition-like group: a root key-object referencing elements. *)
  let part = Runtime.alloc rt ~size:256 () in
  Runtime.write_ref rt holder part;
  let elems =
    List.init 50 (fun _ ->
        let e = Runtime.alloc rt ~size:(Size.kib 1) () in
        Runtime.write_ref rt part e;
        e)
  in
  Runtime.h2_tag_root rt part ~label:7;
  Runtime.h2_move rt ~label:7;
  Runtime.major_gc rt;
  Alcotest.(check bool) "root key-object in H2" true
    (part.Obj_.loc = Obj_.In_h2);
  List.iter
    (fun e ->
      Alcotest.(check bool) "closure element in H2" true
        (e.Obj_.loc = Obj_.In_h2))
    elems;
  Alcotest.(check bool) "same label regions" true
    (List.for_all (fun e -> e.Obj_.label = 7) elems);
  let s = H2.stats h2 in
  Alcotest.(check bool) "objects moved" true (s.H2.moves_to_h2 >= 51)

let test_h2_fences_gc () =
  let rt, _h2 = make_teraheap_rt () in
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  let part = Runtime.alloc rt ~size:256 () in
  Runtime.write_ref rt holder part;
  Runtime.h2_tag_root rt part ~label:1;
  Runtime.h2_move rt ~label:1;
  Runtime.major_gc rt;
  (* The H2 object stays alive across GCs even though the collector never
     scans it. *)
  Runtime.minor_gc rt;
  Runtime.major_gc rt;
  Alcotest.(check bool) "H2 object not freed" false (Obj_.is_freed part)

let test_h2_region_reclaimed_when_unreferenced () =
  let rt, h2 = make_teraheap_rt () in
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  let part = Runtime.alloc rt ~size:256 () in
  Runtime.write_ref rt holder part;
  let elem = Runtime.alloc rt ~size:512 () in
  Runtime.write_ref rt part elem;
  Runtime.h2_tag_root rt part ~label:3;
  Runtime.h2_move rt ~label:3;
  Runtime.major_gc rt;
  Alcotest.(check bool) "moved" true (part.Obj_.loc = Obj_.In_h2);
  (* Drop the only H1 reference; two major GCs later the region is gone
     (liveness is computed during marking, reclamation frees it). *)
  Runtime.unlink_ref rt holder part;
  Runtime.major_gc rt;
  let s = H2.stats h2 in
  Alcotest.(check bool) "region reclaimed" true (s.H2.regions_reclaimed >= 1);
  Alcotest.(check bool) "objects freed in bulk" true (Obj_.is_freed part);
  Alcotest.(check bool) "closure freed too" true (Obj_.is_freed elem)

let test_backward_ref_protects_h1_object () =
  let rt, h2 = make_teraheap_rt () in
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  let part = Runtime.alloc rt ~size:256 () in
  Runtime.write_ref rt holder part;
  Runtime.h2_tag_root rt part ~label:9;
  Runtime.h2_move rt ~label:9;
  Runtime.major_gc rt;
  (* Create a backward reference H2 -> H1 young object; it must survive
     GC even though nothing in H1 references it. *)
  let young = Runtime.alloc rt ~size:128 () in
  Runtime.write_ref rt part young;
  Runtime.minor_gc rt;
  Alcotest.(check bool) "young kept by backward ref" false
    (Obj_.is_freed young);
  Runtime.major_gc rt;
  Alcotest.(check bool) "survives major too" false (Obj_.is_freed young);
  ignore h2

let test_threshold_moves_without_hint () =
  let cfg =
    { H2.default_config with H2.use_move_hint = false; H2.low_threshold = None }
  in
  let rt, h2 = make_teraheap_rt ~heap_bytes:(Size.mib 4) ~h2_config:cfg () in
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  (* Tag a large group but never call h2_move: pressure must trigger the
     transfer once H1 live occupancy crosses the high threshold. *)
  let part = Runtime.alloc rt ~size:256 () in
  Runtime.write_ref rt holder part;
  for _ = 1 to 400 do
    let e = Runtime.alloc rt ~size:(Size.kib 8) () in
    Runtime.write_ref rt part e
  done;
  Runtime.h2_tag_root rt part ~label:5;
  (* Keep allocating garbage so GCs keep firing; pressure should move the
     tagged group eventually. *)
  (try
     for _ = 1 to 2000 do
       ignore (Runtime.alloc rt ~size:(Size.kib 8) ())
     done
   with Runtime.Out_of_memory _ -> ());
  Alcotest.(check bool) "moved under pressure" true
    (part.Obj_.loc = Obj_.In_h2);
  ignore h2

(* --- dead-on-arrival allocation ------------------------------------- *)

(* Twin runtimes run the same random program; wherever it allocates a
   dead-on-arrival temporary, one twin builds a [Temp] record and drops
   it, the other calls [alloc_dead]. Everything observable must agree:
   simulated time to the bit, object ids, space accounting, GC cycles,
   the heap census and any out-of-memory message. The heaps are small
   enough for temps to be pretenured and for programs to run out of
   memory. *)

type twin_op =
  | Keep of int * bool
      (* allocate a [Data] object the program may link, rooted or not *)
  | Temp of int  (* a dead-on-arrival temporary *)
  | Root of int
  | Unroot of int
  | Link of int * int
  | Gc_minor
  | Gc_major

let keep_sizes = [| 64; 4096; 30_000; 60_000 |]

(* The largest sizes exceed half of eden on the smaller heaps and are
   pretenured. *)
let temp_sizes = [| 16; 4096; 65_536; 100_000 |]

let twin_op_gen =
  QCheck.Gen.(
    let idx = int_range 0 31 in
    frequency
      [
        (6, map2 (fun s r -> Keep (s, r)) (int_range 0 3) bool);
        (8, map (fun s -> Temp s) (int_range 0 3));
        (3, map (fun i -> Root i) idx);
        (1, map (fun i -> Unroot i) idx);
        (3, map2 (fun a b -> Link (a, b)) idx idx);
        (1, return Gc_minor);
        (1, return Gc_major);
      ])

let twin_op_to_string = function
  | Keep (s, r) -> Printf.sprintf "Keep(%d,%b)" keep_sizes.(s) r
  | Temp s -> Printf.sprintf "Temp %d" temp_sizes.(s)
  | Root i -> Printf.sprintf "Root %d" i
  | Unroot i -> Printf.sprintf "Unroot %d" i
  | Link (a, b) -> Printf.sprintf "Link(%d,%d)" a b
  | Gc_minor -> "Minor"
  | Gc_major -> "Major"

let twin_case_gen =
  QCheck.Gen.(
    triple
      (oneofl [ Size.kib 256; Size.kib 512; Size.mib 1 ])
      (oneofl [ Th_psgc.Rt.Ps; Th_psgc.Rt.G1 ])
      (list_size (int_range 1 150) twin_op_gen))

let twin_case_print (heap_bytes, collector, program) =
  Printf.sprintf "heap %d, %s: %s" heap_bytes
    (match collector with
    | Th_psgc.Rt.Ps -> "ps"
    | Th_psgc.Rt.Ps_jdk11 -> "ps-jdk11"
    | Th_psgc.Rt.G1 -> "g1")
    (String.concat "; " (List.map twin_op_to_string program))

let kind_tag (k : Obj_.kind) =
  match k with
  | Obj_.Data -> "data"
  | Obj_.Array_data -> "array"
  | Obj_.Jvm_metadata -> "jvm-metadata"
  | Obj_.Weak_reference -> "weak-ref"
  | Obj_.Temp -> "temp"

let cycle_to_string = function
  | Gc_stats.Minor { at_ns; duration_ns } ->
      Printf.sprintf "minor %h %h" at_ns duration_ns
  | Gc_stats.Major
      {
        at_ns;
        duration_ns;
        phases = p;
        old_occupancy_after;
        bytes_moved_to_h2;
        regions_freed;
      } ->
      Printf.sprintf "major %h %h [%h %h %h %h] %h %d %d" at_ns duration_ns
        p.Gc_stats.marking_ns p.Gc_stats.precompact_ns p.Gc_stats.adjust_ns
        p.Gc_stats.compact_ns old_occupancy_after bytes_moved_to_h2
        regions_freed

(* Run [program] on a fresh runtime and render everything observable.
   Returns the rendering and the sanitizer's violation count. *)
let run_twin ~dead (heap_bytes, collector, program) =
  let clock = Clock.create () in
  let heap = H1_heap.create ~heap_bytes () in
  let rt = Runtime.create ~collector ~clock ~costs:Costs.default ~heap () in
  let verifier = Th_verify.Verify.attach rt Th_verify.Verify.Safepoint in
  let kept = Vec.create () in
  let get i =
    if Vec.is_empty kept then None
    else
      let o = Vec.get kept (i mod Vec.length kept) in
      if Obj_.is_freed o then None else Some o
  in
  let run_op = function
    | Keep (s, rooted) ->
        let o = Runtime.alloc rt ~size:keep_sizes.(s) () in
        if rooted then Runtime.add_root rt o;
        Vec.push kept o
    | Temp s ->
        let size = temp_sizes.(s) in
        if dead then Runtime.alloc_dead rt ~size
        else ignore (Runtime.alloc rt ~kind:Obj_.Temp ~size () : Obj_.t)
    | Root i -> Option.iter (Runtime.add_root rt) (get i)
    | Unroot i -> Option.iter (Runtime.remove_root rt) (get i)
    | Link (a, b) -> (
        match (get a, get b) with
        | Some p, Some c when p != c -> Runtime.write_ref rt p c
        | _ -> ())
    | Gc_minor -> Runtime.minor_gc rt
    | Gc_major -> Runtime.major_gc rt
  in
  let oom =
    match List.iter run_op program with
    | () -> "none"
    | exception Runtime.Out_of_memory msg -> msg
  in
  let b = Clock.breakdown clock in
  let lines =
    [
      Printf.sprintf "clock %h %h %h %h" b.Clock.other_ns b.Clock.serde_io_ns
        b.Clock.minor_gc_ns b.Clock.major_gc_ns;
      Printf.sprintf "next_id %d" heap.H1_heap.next_id;
      Printf.sprintf "used eden %d survivor %d old %d" heap.H1_heap.eden_used
        heap.H1_heap.survivor_used heap.H1_heap.old_used;
      "oom " ^ oom;
    ]
    @ List.map cycle_to_string (Gc_stats.cycles (Runtime.stats rt))
    @ List.map
        (fun (e : Th_psgc.Heap_census.entry) ->
          Printf.sprintf "census %s %d %d" (kind_tag e.Th_psgc.Heap_census.kind)
            e.Th_psgc.Heap_census.count e.Th_psgc.Heap_census.bytes)
        (Th_psgc.Heap_census.of_runtime rt)
  in
  (String.concat "\n" lines, Th_verify.Verify.violation_count verifier)

let prop_alloc_dead_twin =
  QCheck.Test.make ~name:"alloc_dead is indistinguishable from a Temp record"
    ~count:200
    (QCheck.make ~print:twin_case_print twin_case_gen)
    (fun case ->
      let records, record_violations = run_twin ~dead:false case in
      let dead, dead_violations = run_twin ~dead:true case in
      if record_violations <> 0 || dead_violations <> 0 then
        QCheck.Test.fail_reportf "sanitizer violations: records %d, dead %d"
          record_violations dead_violations
      else if not (String.equal records dead) then
        QCheck.Test.fail_reportf "twins diverge:\n--- Temp records\n%s\n--- alloc_dead\n%s"
          records dead
      else true)

let suite =
  [
    Alcotest.test_case "alloc lands in eden" `Quick test_alloc_in_eden;
    Alcotest.test_case "large objects go directly old" `Quick
      test_large_object_goes_old;
    Alcotest.test_case "minor GC reclaims garbage" `Quick
      test_minor_gc_reclaims_garbage;
    Alcotest.test_case "live objects survive minor GC" `Quick
      test_live_objects_survive_minor_gc;
    Alcotest.test_case "tenuring promotes to old" `Quick test_tenuring_promotes;
    Alcotest.test_case "card table keeps old->young targets" `Quick
      test_old_to_young_ref_keeps_young_alive;
    Alcotest.test_case "major GC compacts old gen" `Quick
      test_major_gc_compacts_old_gen;
    Alcotest.test_case "OOM raised when heap exhausted" `Quick test_oom_raised;
    Alcotest.test_case "h2_tag_root + h2_move transfers closure" `Quick
      test_h2_move_via_hints;
    Alcotest.test_case "H2 objects fenced from GC" `Quick test_h2_fences_gc;
    Alcotest.test_case "dead H2 regions reclaimed in bulk" `Quick
      test_h2_region_reclaimed_when_unreferenced;
    Alcotest.test_case "backward refs protect H1 objects" `Quick
      test_backward_ref_protects_h1_object;
    Alcotest.test_case "high threshold moves without hint" `Quick
      test_threshold_moves_without_hint;
    QCheck_alcotest.to_alcotest prop_alloc_dead_twin;
  ]

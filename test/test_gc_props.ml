(* Property-based tests of the collector's safety and liveness
   invariants, driven by randomly generated mutator programs.

   A "program" is a list of operations (allocate, link, unlink, pin,
   unpin, tag, advise, GC) executed against a small heap with TeraHeap
   enabled. After the program runs, we compare the simulated heap state
   against a full-reachability oracle. *)

open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Roots = Th_objmodel.Roots
module H1_heap = Th_minijvm.H1_heap
module H2 = Th_core.H2
module H2_card_table = Th_core.H2_card_table
module Runtime = Th_psgc.Runtime
module Device = Th_device.Device

type op =
  | Alloc of int  (* size selector *)
  | Link of int * int  (* parent idx, child idx into live table *)
  | Unlink of int * int
  | Pin of int
  | Unpin of int
  | Tag of int * int  (* obj idx, label *)
  | Advise of int
  | Minor
  | Major

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun s -> Alloc s) (int_range 0 3));
        (6, map2 (fun a b -> Link (a, b)) (int_range 0 63) (int_range 0 63));
        (2, map2 (fun a b -> Unlink (a, b)) (int_range 0 63) (int_range 0 63));
        (3, map (fun a -> Pin a) (int_range 0 63));
        (2, map (fun a -> Unpin a) (int_range 0 63));
        (2, map2 (fun a l -> Tag (a, l)) (int_range 0 63) (int_range 0 7));
        (2, map (fun l -> Advise l) (int_range 0 7));
        (1, return Minor);
        (1, return Major);
      ])

let program_gen = QCheck.Gen.(list_size (int_range 10 120) op_gen)

let op_to_string = function
  | Alloc s -> Printf.sprintf "Alloc %d" s
  | Link (a, b) -> Printf.sprintf "Link(%d,%d)" a b
  | Unlink (a, b) -> Printf.sprintf "Unlink(%d,%d)" a b
  | Pin a -> Printf.sprintf "Pin %d" a
  | Unpin a -> Printf.sprintf "Unpin %d" a
  | Tag (a, l) -> Printf.sprintf "Tag(%d,%d)" a l
  | Advise l -> Printf.sprintf "Advise %d" l
  | Minor -> "Minor"
  | Major -> "Major"

let arbitrary_program =
  QCheck.make
    ~print:(fun p -> String.concat "; " (List.map op_to_string p))
    ~shrink:QCheck.Shrink.list program_gen

(* Execute a program; returns the runtime plus the table of every object
   ever allocated and the currently pinned set. *)
let base_config =
  {
    H2.default_config with
    H2.region_size = Size.kib 64;
    capacity = Size.mib 16;
  }

let execute ?(config = base_config) ?collector ?rset_mode ?on_runtime program =
  let clock = Clock.create () in
  let costs = Costs.default in
  let heap = H1_heap.create ~heap_bytes:(Size.mib 2) () in
  let device = Device.create clock Device.Nvme_ssd in
  let h2 = H2.create ~config ~clock ~costs ~device ~dr2_bytes:(Size.kib 256) () in
  let rt = Runtime.create ?collector ?rset_mode ~h2 ~clock ~costs ~heap () in
  (* Lets Test_verify attach its sanitizer before any operation runs. *)
  (match on_runtime with Some f -> f rt | None -> ());
  let table = Vec.create () in
  let pinned : (int, Obj_.t) Hashtbl.t = Hashtbl.create 16 in
  (* Selectors 4 and 5 are G1 humongous arrays (over half of the 64 KiB
     G1 region a 2 MiB heap gets); only [humongous_program_gen] emits
     them. *)
  let sizes = [| 64; 256; 1024; 4096; 40_000; 70_000 |] in
  let get idx =
    if Vec.is_empty table then None
    else begin
      let o = Vec.get table (idx mod Vec.length table) in
      if Obj_.is_freed o then None else Some o
    end
  in
  (try
     List.iter
       (fun op ->
         match op with
         | Alloc s ->
             let kind = if s >= 4 then Obj_.Array_data else Obj_.Data in
             let o = Runtime.alloc rt ~kind ~size:sizes.(s) () in
             (* Pin transiently through the table? No: objects are only
                live if pinned or linked from a pinned object. *)
             Vec.push table o
         | Link (a, b) -> (
             match (get a, get b) with
             | Some pa, Some cb when pa != cb -> Runtime.write_ref rt pa cb
             | _ -> ())
         | Unlink (a, b) -> (
             match (get a, get b) with
             | Some pa, Some cb -> Runtime.unlink_ref rt pa cb
             | _ -> ())
         | Pin a -> (
             match get a with
             | Some o when not (Hashtbl.mem pinned o.Obj_.id) ->
                 Runtime.add_root rt o;
                 Hashtbl.replace pinned o.Obj_.id o
             | _ -> ())
         | Unpin a -> (
             match get a with
             | Some o when Hashtbl.mem pinned o.Obj_.id ->
                 Runtime.remove_root rt o;
                 Hashtbl.remove pinned o.Obj_.id
             | _ -> ())
         | Tag (a, label) -> (
             match get a with
             | Some o -> Runtime.h2_tag_root rt o ~label
             | _ -> ())
         | Advise label -> Runtime.h2_move rt ~label
         | Minor -> Runtime.minor_gc rt
         | Major -> Runtime.major_gc rt)
       program
   with Runtime.Out_of_memory _ | H2.Out_of_h2_space -> ());
  (rt, table, pinned)

let roots_of rt = Roots.to_list (Runtime.roots rt)

(* Invariant 1: no reachable object is ever freed. *)
let prop_no_reachable_object_freed =
  QCheck.Test.make ~name:"GC never frees a reachable object" ~count:120
    arbitrary_program
    (fun program ->
      let rt, _, _ = execute program in
      Runtime.major_gc rt;
      let reachable =
        Obj_.reachable ~roots:(roots_of rt) ~fence_h2:false
      in
      (* Order-insensitive: conjunction over every binding.
         th-lint: allow hashtbl-order *)
      Hashtbl.fold
        (fun _ (o : Obj_.t) ok ->
          if Obj_.is_freed o then begin
            Printf.eprintf "[freed-but-reachable] %s region=%d label=%d\n%!"
              (Format.asprintf "%a" Obj_.pp o)
              o.Obj_.h2_region o.Obj_.label;
            false
          end
          else ok)
        reachable true)

(* Invariant 2: completeness of H1 reclamation modulo TeraHeap's
   designed-in conservatism. The collector treats every H1 object
   referenced from H2 as live (backward references found through the
   card table, §3.4) without scanning H2 — so H1 objects on H1<->H2
   cycles are retained even when globally unreachable, and backward
   references from a still-unreclaimed dead region pin their targets
   for one extra cycle. The right oracle is therefore: reachable from
   the GC roots plus the backward-reference targets of all current H2
   residents, with tracing fenced at the H1/H2 boundary. Anything
   outside that set must be gone after two collections. *)
let prop_unreachable_h1_reclaimed =
  QCheck.Test.make ~name:"major GCs reclaim all dead H1 objects" ~count:120
    arbitrary_program
    (fun program ->
      let rt, table, _ = execute program in
      Runtime.major_gc rt;
      Runtime.major_gc rt;
      let backward_targets = ref [] in
      (match Runtime.h2 rt with
      | Some h2 ->
          Th_core.H2.iter_objects h2 (fun h ->
              Obj_.iter_refs
                (fun c ->
                  if Obj_.is_in_h1 c then
                    backward_targets := c :: !backward_targets)
                h)
      | None -> ());
      let retained =
        Obj_.reachable
          ~roots:(roots_of rt @ !backward_targets)
          ~fence_h2:true
      in
      let ok = ref true in
      Vec.iter
        (fun (o : Obj_.t) ->
          if Obj_.is_in_h1 o && not (Hashtbl.mem retained o.Obj_.id) then
            ok := false)
        table;
      !ok)

(* Invariant 3: space accounting matches the objects actually resident. *)
let prop_h1_accounting_consistent =
  QCheck.Test.make ~name:"H1 used bytes match resident objects" ~count:120
    arbitrary_program
    (fun program ->
      let rt, _, _ = execute program in
      Runtime.major_gc rt;
      let heap = Runtime.heap rt in
      let sum = ref 0 in
      Vec.iter (fun o -> sum := !sum + Obj_.footprint o) heap.H1_heap.old_objs;
      !sum = heap.H1_heap.old_used
      && heap.H1_heap.eden_used = 0
      && heap.H1_heap.survivor_used = 0)

(* Invariant 4: a freed H2 region really had no incoming references —
   equivalently, no living object anywhere still references a freed
   object. *)
let prop_no_live_object_references_freed =
  QCheck.Test.make ~name:"no live object references a freed one" ~count:120
    arbitrary_program
    (fun program ->
      let rt, table, _ = execute program in
      Runtime.major_gc rt;
      let ok = ref true in
      Vec.iter
        (fun (o : Obj_.t) ->
          if not (Obj_.is_freed o) then
            Obj_.iter_refs
              (fun c ->
                (* Backward/forward references from live objects must
                   never dangle. *)
                if Obj_.is_freed c then ok := false)
              o)
        table;
      !ok)

(* Invariant 5: objects moved by one h2_move land in regions owned by
   their label. *)
let prop_label_grouping =
  QCheck.Test.make ~name:"H2 regions group objects by label" ~count:120
    arbitrary_program
    (fun program ->
      let rt, table, _ = execute program in
      Runtime.major_gc rt;
      (* Collect region -> labels mapping over H2 residents. *)
      let region_label : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      Vec.iter
        (fun (o : Obj_.t) ->
          if o.Obj_.loc = Obj_.In_h2 then
            match Hashtbl.find_opt region_label o.Obj_.h2_region with
            | None -> Hashtbl.replace region_label o.Obj_.h2_region o.Obj_.label
            | Some l -> if l <> o.Obj_.label then ok := false)
        table;
      !ok)

(* Invariant 6: card-table soundness — any H2-resident object holding a
   reference to a young H1 object lies in a segment whose card is dirty
   or youngGen, so the next minor GC will find the backward reference. *)
let prop_backward_ref_cards_sound =
  QCheck.Test.make ~name:"H2 cards cover all backward refs to young objects"
    ~count:120 arbitrary_program
    (fun program ->
      let rt, table, _ = execute program in
      match Runtime.h2 rt with
      | None -> true
      | Some h2 ->
          let ct = H2.card_table h2 in
          let cfg = H2.config h2 in
          let ok = ref true in
          Vec.iter
            (fun (o : Obj_.t) ->
              if o.Obj_.loc = Obj_.In_h2 then begin
                let has_young = ref false in
                Obj_.iter_refs
                  (fun c -> if Obj_.is_young c then has_young := true)
                  o;
                if !has_young then begin
                  let gaddr =
                    (o.Obj_.h2_region * cfg.H2.region_size) + o.Obj_.addr
                  in
                  let seg = H2_card_table.segment_of ct ~gaddr in
                  match H2_card_table.state ct ~seg with
                  | H2_card_table.Dirty | H2_card_table.Young_gen -> ()
                  | H2_card_table.Clean | H2_card_table.Old_gen -> ok := false
                end
              end)
            table;
          !ok)

(* Invariant 7: dependency-list reclamation is never less conservative
   than the Union-Find alternative would allow it to be unsafe — freed
   regions cannot be reachable from H1 roots. *)
let prop_freed_regions_unreachable =
  QCheck.Test.make ~name:"freed H2 objects are unreachable from roots"
    ~count:120 arbitrary_program
    (fun program ->
      let rt, table, _ = execute program in
      Runtime.major_gc rt;
      let reachable = Obj_.reachable ~roots:(roots_of rt) ~fence_h2:false in
      let ok = ref true in
      Vec.iter
        (fun (o : Obj_.t) ->
          if Obj_.is_freed o && Hashtbl.mem reachable o.Obj_.id then
            ok := false)
        table;
      !ok)

(* The safety invariant must hold under every H2 configuration variant:
   the Union-Find reclamation mode, size-segregated placement, unaligned
   (vanilla) card stripes, and dynamic thresholds. *)
let prop_safety_under_config name config =
  QCheck.Test.make ~name ~count:80 arbitrary_program (fun program ->
      let rt, table, _ = execute ~config program in
      Runtime.major_gc rt;
      let reachable = Obj_.reachable ~roots:(roots_of rt) ~fence_h2:false in
      (* Order-insensitive: conjunction over every binding.
         th-lint: allow hashtbl-order *)
      Hashtbl.fold
        (fun _ (o : Obj_.t) ok -> ok && not (Obj_.is_freed o))
        reachable true
      && Th_sim.Vec.fold_left
           (fun ok (o : Obj_.t) ->
             ok
             &&
             if Obj_.is_freed o then
               not (Hashtbl.mem reachable o.Obj_.id)
             else true)
           true table)

let prop_safety_region_groups =
  prop_safety_under_config "safety holds under Union-Find region groups"
    { base_config with H2.reclaim_mode = H2.Region_groups }

let prop_safety_size_segregated =
  prop_safety_under_config "safety holds under size-segregated placement"
    { base_config with H2.placement = H2.Size_segregated }

let prop_safety_unaligned_stripes =
  prop_safety_under_config "safety holds with vanilla (unaligned) stripes"
    { base_config with H2.stripe_aligned = false }

let prop_safety_dynamic_thresholds =
  prop_safety_under_config "safety holds with dynamic thresholds"
    { base_config with H2.dynamic_thresholds = true }

(* Invariant 8: the card-indexed remembered set is an exact drop-in for
   the linear old-generation sweep — same program, same simulated clock,
   same GC counts, same final object state. The old generation is
   address-sorted, so each card's objects are one run of it, and both
   modes visit the same objects in the same order and must charge
   identical simulated time. *)
let prop_rset_modes_equivalent =
  QCheck.Test.make
    ~name:"card-indexed rset is observationally equal to linear scan"
    ~count:120 arbitrary_program
    (fun program ->
      let summarize rset_mode =
        let rt, table, _ = execute ~rset_mode program in
        let module Gc_stats = Th_psgc.Gc_stats in
        let stats = Runtime.stats rt in
        let objs =
          List.map
            (fun (o : Obj_.t) -> (o.Obj_.id, o.Obj_.loc, o.Obj_.addr))
            (Vec.to_list table)
        in
        ( Clock.now_ns (Runtime.clock rt),
          Gc_stats.minor_count stats,
          Gc_stats.major_count stats,
          Th_minijvm.Card_table.dirty_count (Runtime.heap rt).H1_heap.cards,
          objs )
      in
      summarize Th_psgc.Rt.Card_index = summarize Th_psgc.Rt.Linear_scan)

(* Invariant 9: the object-start index is exact — for every card, its
   position range holds precisely the old-generation objects whose start
   address lies on that card, in address order. *)
let prop_rset_index_exact =
  QCheck.Test.make
    ~name:"object-start index exactly partitions the old generation"
    ~count:120 arbitrary_program
    (fun program ->
      let rt, _, _ = execute program in
      let heap = Runtime.heap rt in
      let ct = heap.H1_heap.cards in
      let module Card_table = Th_minijvm.Card_table in
      (* Expected card contents from a fresh sweep of [old_objs]. *)
      let expected : (int, Obj_.t list) Hashtbl.t = Hashtbl.create 64 in
      Vec.iter
        (fun (o : Obj_.t) ->
          let c = Card_table.card_of_addr ct o.Obj_.addr in
          let tl = Option.value ~default:[] (Hashtbl.find_opt expected c) in
          Hashtbl.replace expected c (o :: tl))
        heap.H1_heap.old_objs;
      let ids objs = List.map (fun (o : Obj_.t) -> o.Obj_.id) objs in
      let ok =
        ref (Card_table.indexed_objects ct = Vec.length heap.H1_heap.old_objs)
      in
      for c = 0 to Card_table.num_cards ct - 1 do
        let exp =
          List.rev (Option.value ~default:[] (Hashtbl.find_opt expected c))
        in
        let lo = Card_table.start_index ct ~card:c in
        let got =
          List.init
            (Card_table.start_index ct ~card:(c + 1) - lo)
            (fun k -> Vec.get heap.H1_heap.old_objs (lo + k))
        in
        if ids got <> ids exp then ok := false
      done;
      !ok)

(* The index rests on [old_objs] staying strictly address-sorted: bump
   allocation appends at the top and compaction slides in order. Checked
   at every safepoint under G1, whose humongous allocations go straight
   to the old generation and bump [old_top] by their footprint, region
   slack included. *)
let humongous_program_gen =
  QCheck.Gen.(
    list_size (int_range 10 120)
      (frequency
         [ (1, map (fun s -> Alloc (4 + s)) (int_range 0 1)); (9, op_gen) ]))

let prop_old_gen_sorted_at_safepoints =
  QCheck.Test.make ~name:"old generation stays address-sorted (G1 humongous)"
    ~count:120
    (QCheck.make
       ~print:(fun p -> String.concat "; " (List.map op_to_string p))
       ~shrink:QCheck.Shrink.list humongous_program_gen)
    (fun program ->
      let sorted = ref true and safepoints = ref 0 in
      let check (rt : Th_psgc.Rt.t) =
        incr safepoints;
        let objs = (Runtime.heap rt).H1_heap.old_objs in
        for i = 1 to Vec.length objs - 1 do
          if (Vec.get objs (i - 1)).Obj_.addr >= (Vec.get objs i).Obj_.addr
          then sorted := false
        done
      in
      let rt, _, _ =
        (* H2 regions large enough for the two-region humongous arrays. *)
        execute ~collector:Th_psgc.Rt.G1
          ~config:{ base_config with H2.region_size = Size.kib 256 }
          ~on_runtime:(fun rt ->
            rt.Th_psgc.Rt.safepoint_hook <- Some (fun _ -> check rt))
          program
      in
      (* A closing full collection, so even a GC-free program reaches
         two safepoints and a compaction. *)
      (try Runtime.major_gc rt with Runtime.Out_of_memory _ -> ());
      !sorted && !safepoints >= 2)

(* Invariant 10: after a major GC the space vectors hold no [Freed]
   entries and their backing arrays carry no slack referencing them.
   Reading [0, length) cannot see the slack, so the freed objects are
   held weakly and must all be collected by the host GC while the
   runtime itself stays alive. *)
let run_and_weaken_freed program =
  let rt, table, _ = execute program in
  Runtime.major_gc rt;
  let freed =
    Vec.fold_left
      (fun acc (o : Obj_.t) -> if Obj_.is_freed o then o :: acc else acc)
      [] table
  in
  let weak = Weak.create (List.length freed) in
  List.iteri (fun i o -> Weak.set weak i (Some o)) freed;
  (rt, weak)
[@@inline never]

let prop_no_freed_after_major =
  QCheck.Test.make ~name:"major GC compacts Freed entries out of the vectors"
    ~count:120 arbitrary_program
    (fun program ->
      let rt, weak = run_and_weaken_freed program in
      Gc.full_major ();
      let heap = Runtime.heap rt in
      let no_freed v =
        Vec.fold_left (fun ok (o : Obj_.t) -> ok && not (Obj_.is_freed o)) true v
      in
      let collected = ref true in
      for i = 0 to Weak.length weak - 1 do
        if Weak.check weak i then collected := false
      done;
      let ok =
        no_freed heap.H1_heap.old_objs
        && no_freed heap.H1_heap.eden
        && no_freed heap.H1_heap.survivor
        && !collected
      in
      ignore (Sys.opaque_identity rt);
      ok)

let props =
  [
    prop_no_reachable_object_freed;
    prop_rset_modes_equivalent;
    prop_rset_index_exact;
    prop_old_gen_sorted_at_safepoints;
    prop_no_freed_after_major;
    prop_safety_region_groups;
    prop_safety_size_segregated;
    prop_safety_unaligned_stripes;
    prop_safety_dynamic_thresholds;
    prop_unreachable_h1_reclaimed;
    prop_h1_accounting_consistent;
    prop_no_live_object_references_freed;
    prop_label_grouping;
    prop_backward_ref_cards_sound;
    prop_freed_regions_unreachable;
  ]

(* The marking stack's growth path, which the programs above (at most
   120 operations) never reach: a fan-out of 12k objects, each with a
   child, pushes far past
   the stack's 1024 initial slots. Exactly the reachable set survives,
   and the simulated time equals that of a run whose stack starts at one
   slot and doubles fourteen times. *)
let mark_stack_run ?initial_slots () =
  let clock = Clock.create () in
  let heap = H1_heap.create ~heap_bytes:(Size.mib 16) () in
  let rt = Runtime.create ~clock ~costs:Costs.default ~heap () in
  Option.iter
    (fun n ->
      rt.Th_psgc.Rt.mark_stack <- Array.make n (Obj_.create ~id:(-1) ~size:0 ()))
    initial_slots;
  let all = Vec.create () in
  let alloc () =
    let o = Runtime.alloc rt ~size:32 () in
    Vec.push all o;
    o
  in
  let hub = alloc () in
  Runtime.add_root rt hub;
  for _ = 1 to 12_000 do
    (* Each member has a child, so a lost stack entry loses a live one. *)
    let member = alloc () in
    Runtime.write_ref rt hub member;
    Runtime.write_ref rt member (alloc ())
  done;
  let head = alloc () in
  Runtime.add_root rt head;
  let tail = ref head in
  for _ = 1 to 5_000 do
    let next = alloc () in
    Runtime.write_ref rt !tail next;
    tail := next
  done;
  (* Garbage: a dead fan-out whose members also reference live objects. *)
  let dead = alloc () in
  for i = 1 to 3_000 do
    let d = alloc () in
    Runtime.write_ref rt dead d;
    Runtime.write_ref rt d (Vec.get all i)
  done;
  Runtime.major_gc rt;
  let reachable = Obj_.reachable ~roots:(roots_of rt) ~fence_h2:false in
  let exact =
    Vec.fold_left
      (fun ok (o : Obj_.t) ->
        ok && Hashtbl.mem reachable o.Obj_.id = not (Obj_.is_freed o))
      true all
  in
  (* A second collection starts from the grown, refilled stack. *)
  Runtime.major_gc rt;
  let b = Clock.breakdown clock in
  ( exact,
    Printf.sprintf "%h %h %h %h" b.Clock.other_ns b.Clock.serde_io_ns
      b.Clock.minor_gc_ns b.Clock.major_gc_ns,
    Array.length rt.Th_psgc.Rt.mark_stack )

let test_mark_stack_growth () =
  let exact, clock, slots = mark_stack_run () in
  let exact_small, clock_small, slots_small =
    mark_stack_run ~initial_slots:1 ()
  in
  Alcotest.(check bool) "exactly the reachable set survives" true exact;
  Alcotest.(check bool) "same, from a one-slot stack" true exact_small;
  Alcotest.(check bool) "the stack grew past 12k slots" true (slots >= 12_000);
  Alcotest.(check bool)
    "the one-slot stack grew too" true (slots_small >= 12_000);
  Alcotest.(check string) "clock independent of the stack's growth" clock
    clock_small

let suite =
  List.map QCheck_alcotest.to_alcotest props
  @ [
      Alcotest.test_case "major GC marking stack grows past its first slots"
        `Quick test_mark_stack_growth;
    ]

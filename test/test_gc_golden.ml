(* Golden of the collectors' simulated output over the configurations the
   perf digests do not cover.

   The perf digests pin Parallel Scavenge under the DRAM cost profile.
   This golden pins, bit for bit (floats in %h), every major GC's four
   phase durations, occupancy after, bytes moved to H2 and regions freed,
   plus the final clock breakdown, for seeded mutator runs under [Ps],
   [Ps_jdk11] and [G1] (with humongous arrays), the [panthera] and
   [nvm_memory_mode] profiles, and TeraHeap runs that move, defer (H2
   full) and reclaim regions. A collector rewrite that changes no
   simulated number leaves golden/gc_cycles.txt unchanged;
   TH_UPDATE_GOLDEN=1 regenerates it. *)

open Th_sim
module Obj_ = Th_objmodel.Heap_object
module H2 = Th_core.H2
module Runtime = Th_psgc.Runtime
module Rt = Th_psgc.Rt
module Gc_stats = Th_psgc.Gc_stats
module Cost_profile = Th_psgc.Cost_profile
module H1_heap = Th_minijvm.H1_heap
module Device = Th_device.Device

type scenario = {
  name : string;
  collector : Rt.collector;
  profile : heap_bytes:int -> Cost_profile.t;
  h2 : H2.config option;
  humongous : bool;
  seed : int;
}

let heap_bytes = Size.mib 8

let dram ~heap_bytes:_ = Cost_profile.dram

let small_h2 =
  {
    H2.default_config with
    H2.region_size = Size.kib 64;
    capacity = Size.kib 768;
  }

let scenarios =
  [
    { name = "ps-dram"; collector = Rt.Ps; profile = dram; h2 = None;
      humongous = false; seed = 11 };
    { name = "ps-jdk11-dram"; collector = Rt.Ps_jdk11; profile = dram;
      h2 = None; humongous = false; seed = 12 };
    { name = "g1-humongous"; collector = Rt.G1; profile = dram; h2 = None;
      humongous = true; seed = 13 };
    { name = "ps-panthera"; collector = Rt.Ps;
      profile = (fun ~heap_bytes:_ -> Cost_profile.panthera); h2 = None;
      humongous = false; seed = 14 };
    { name = "ps-jdk11-nvm-memory-mode"; collector = Rt.Ps_jdk11;
      profile =
        (fun ~heap_bytes ->
          Cost_profile.nvm_memory_mode ~dram_bytes:(heap_bytes / 3)
            ~heap_bytes);
      h2 = None; humongous = false; seed = 15 };
    { name = "teraheap-ps-h2-full"; collector = Rt.Ps; profile = dram;
      h2 = Some small_h2; humongous = false; seed = 22 };
    { name = "teraheap-g1-region-groups"; collector = Rt.G1; profile = dram;
      h2 = Some { small_h2 with H2.reclaim_mode = H2.Region_groups;
                  capacity = Size.mib 4 };
      humongous = false; seed = 17 };
  ]

let sizes = [| 64; 256; 1024; 4096 |]

(* A seeded mutator: allocations attached to a churning root set, random
   links and unlinks, TeraHeap tags and move hints, explicit collections,
   and one wide fan-out and one long chain so the marking stack runs
   deep. Returns how the run ended. *)
let drive (s : scenario) rt =
  let st = Prng.create (Int64.of_int s.seed) in
  let int n = Prng.int st n in
  let roots = Vec.create () in
  let ring = Array.make 64 None in
  let live_of = function
    | Some (o : Obj_.t) when not (Obj_.is_freed o) -> Some o
    | Some _ | None -> None
  in
  let pick_root () =
    if Vec.is_empty roots then None
    else live_of (Some (Vec.get roots (int (Vec.length roots))))
  in
  let alloc ~kind ~size =
    let o = Runtime.alloc rt ~kind ~size () in
    (match pick_root () with
    | Some p when int 10 < 7 && p != o -> Runtime.write_ref rt p o
    | Some _ | None ->
        Runtime.add_root rt o;
        Vec.push roots o);
    o
  in
  let steps = 5000 in
  try
    for step = 0 to steps - 1 do
      let r = int 100 in
      if step = steps / 2 then begin
        (* Wide fan-out, then a long chain, both rooted. *)
        let hub = alloc ~kind:Obj_.Data ~size:64 in
        for _ = 1 to 12_000 do
          Runtime.write_ref rt hub (Runtime.alloc rt ~size:16 ())
        done;
        let tail = ref (alloc ~kind:Obj_.Data ~size:64) in
        for _ = 1 to 3_000 do
          let next = Runtime.alloc rt ~size:16 () in
          Runtime.write_ref rt !tail next;
          tail := next
        done
      end
      else if r < 50 then begin
        let kind, size =
          if s.humongous && int 32 = 0 then
            (Obj_.Array_data, if int 2 = 0 then 40_000 else 70_000)
          else (Obj_.Data, sizes.(int (Array.length sizes)))
        in
        ring.(step land 63) <- Some (alloc ~kind ~size)
      end
      else if r < 60 then begin
        match (live_of ring.(int 64), live_of ring.(int 64)) with
        | Some a, Some b when a != b -> Runtime.write_ref rt a b
        | _ -> ()
      end
      else if r < 64 then begin
        match (live_of ring.(int 64), live_of ring.(int 64)) with
        | Some a, Some b -> Runtime.unlink_ref rt a b
        | _ -> ()
      end
      else if r < 72 then begin
        if not (Vec.is_empty roots) then begin
          let i = int (Vec.length roots) in
          Runtime.remove_root rt (Vec.get roots i);
          Vec.swap_remove roots i
        end
      end
      else if r < 78 then begin
        if s.h2 <> None then
          match pick_root () with
          | Some o -> Runtime.h2_tag_root rt o ~label:(int 8)
          | None -> ()
      end
      else if r < 81 then begin
        if s.h2 <> None then Runtime.h2_move rt ~label:(int 8)
      end
      else if r < 83 then Runtime.major_gc rt
      else if r < 86 then Runtime.minor_gc rt
      else Runtime.alloc_dead rt ~size:256
    done;
    Runtime.major_gc rt;
    "completed"
  with
  | Runtime.Out_of_memory _ -> "out of memory"
  | H2.Out_of_h2_space -> "out of H2 space"

let run_scenario buf (s : scenario) =
  let clock = Clock.create () in
  let costs = Costs.default in
  let heap = H1_heap.create ~heap_bytes () in
  let h2 =
    Option.map
      (fun config ->
        let device = Device.create clock Device.Nvme_ssd in
        H2.create ~config ~clock ~costs ~device ~dr2_bytes:(Size.kib 256) ())
      s.h2
  in
  let rt =
    Runtime.create ~collector:s.collector
      ~profile:(s.profile ~heap_bytes)
      ?h2 ~clock ~costs ~heap ()
  in
  let outcome = drive s rt in
  let p fmt = Printf.bprintf buf fmt in
  p "== %s: %s\n" s.name outcome;
  let b = Clock.breakdown clock in
  p "clock other=%h serde_io=%h minor=%h major=%h\n" b.Clock.other_ns
    b.Clock.serde_io_ns b.Clock.minor_gc_ns b.Clock.major_gc_ns;
  let stats = Runtime.stats rt in
  p "minor=%d major=%d\n" (Gc_stats.minor_count stats)
    (Gc_stats.major_count stats);
  let i = ref 0 in
  List.iter
    (function
      | Gc_stats.Minor _ -> ()
      | Gc_stats.Major m ->
          incr i;
          let ph = m.phases in
          p "major %d at=%h dur=%h mark=%h precompact=%h adjust=%h \
             compact=%h occ=%h moved=%d freed=%d\n"
            !i m.at_ns m.duration_ns ph.Gc_stats.marking_ns
            ph.Gc_stats.precompact_ns ph.Gc_stats.adjust_ns
            ph.Gc_stats.compact_ns m.old_occupancy_after m.bytes_moved_to_h2
            m.regions_freed)
    (Gc_stats.cycles stats);
  (match h2 with
  | None -> ()
  | Some h2 ->
      let st = H2.stats h2 in
      p "h2 moved=%d reclaimed=%d degraded=%d deferred=%d\n"
        st.H2.bytes_moved st.H2.regions_reclaimed st.H2.degraded_moves
        st.H2.objects_deferred);
  rt

let test_golden () =
  let buf = Buffer.create 65536 in
  let rts = List.map (run_scenario buf) scenarios in
  (* The TeraHeap scenarios must exercise what the golden claims to
     cover: moves, deferral when H2 is full, and region reclamation. *)
  List.iter2
    (fun (s : scenario) rt ->
      match Runtime.h2 rt with
      | None -> ()
      | Some h2 ->
          let st = H2.stats h2 in
          if st.H2.bytes_moved = 0 || st.H2.regions_reclaimed = 0 then
            Alcotest.failf "%s: %d bytes moved, %d regions reclaimed" s.name
              st.H2.bytes_moved st.H2.regions_reclaimed)
    scenarios rts;
  (let rt = List.nth rts 5 in
   match Runtime.h2 rt with
   | Some h2 when (H2.stats h2).H2.degraded_moves > 0 -> ()
   | Some _ | None -> Alcotest.fail "teraheap-ps-h2-full: H2 never filled");
  Test_trace.golden_check ~file:"gc_cycles.txt" (Buffer.contents buf)

let suite =
  [ Alcotest.test_case "collector cycles match golden" `Quick test_golden ]

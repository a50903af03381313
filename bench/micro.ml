(* Bechamel micro-benchmarks of the core data structures: H2 card-table
   operations, region allocation/reclamation, dependency propagation,
   closure traversal, the remembered-set scan, the page cache and the
   mutator's allocation paths. One Test.make per table. *)

open Bechamel
open Toolkit
module H2 = Th_core.H2
module H2_card_table = Th_core.H2_card_table
module Obj_ = Th_objmodel.Heap_object
module Card_table = Th_minijvm.Card_table
open Th_sim

let make_h2 () =
  let clock = Clock.create () in
  let costs = Costs.default in
  let device = Th_device.Device.create clock Th_device.Device.Nvme_ssd in
  H2.create ~config:H2.default_config ~clock ~costs ~device
    ~dr2_bytes:(Size.mib 8) ()

let test_card_mark =
  let ct = H2_card_table.create ~capacity_bytes:(Size.mib 256) () in
  Test.make ~name:"h2 card mark_dirty"
    (Staged.stage (fun () -> H2_card_table.mark_dirty ct ~gaddr:123_456))

let test_card_scan =
  let ct = H2_card_table.create ~capacity_bytes:(Size.mib 64) () in
  for i = 0 to 100 do
    H2_card_table.mark_dirty ct ~gaddr:(i * Size.kib 640)
  done;
  Test.make ~name:"h2 card table scan (16k segments)"
    (Staged.stage (fun () ->
         let n = ref 0 in
         H2_card_table.iter_minor_scan ct ~lo:0
           ~hi:(H2_card_table.num_segments ct) (fun _ _ -> incr n)))

let test_region_cycle =
  Test.make ~name:"h2 region alloc+reclaim (64 objs)"
    (Staged.stage (fun () ->
         let h2 = make_h2 () in
         (try
            for i = 0 to 63 do
              let o = Obj_.create ~id:i ~size:1024 () in
              H2.alloc h2 o ~label:1
            done
          with H2.Out_of_h2_space ->
            (* 64 KiB cannot exhaust a fresh H2; an overflow here means
               the fixture shrank. Fail the benchmark, not the harness. *)
            failwith "micro: H2 exhausted in region-cycle fixture");
         H2.clear_live_bits h2;
         ignore (H2.free_dead_regions h2 ~on_free:(fun _ -> ()))))

let test_closure =
  let root = Obj_.create ~id:0 ~size:64 () in
  for i = 1 to 1000 do
    Obj_.add_ref root (Obj_.create ~id:i ~size:256 ())
  done;
  Test.make ~name:"reachability over 1k-object group"
    (Staged.stage (fun () ->
         ignore (Obj_.reachable ~roots:[ root ] ~fence_h2:false)))

let test_h1_cards =
  let ct = Card_table.create ~capacity_bytes:(Size.mib 64) () in
  Test.make ~name:"h1 card mark+clear"
    (Staged.stage (fun () ->
         Card_table.mark_dirty ct ~addr:51200;
         Card_table.clear_card ct ~card:(Card_table.card_of_addr ct 51200)))

module H1_heap = Th_minijvm.H1_heap

(* An old generation with [objs] indexed objects and [dirty] dirty
   cards spread evenly over the populated address range, exercising the
   minor-GC Task-2 scan both ways: the linear sweep of [old_objs] and the
   walk of the dirty cards' object-start ranges. The index walk should
   scale with the number of dirty cards, not the old-generation
   population. *)
let make_old_heap ~objs ~dirty =
  let heap = H1_heap.create ~heap_bytes:(Size.mib 64) () in
  let size = 200 in
  for i = 0 to objs - 1 do
    match H1_heap.old_alloc_addr heap size with
    | None -> failwith "micro: old generation sized too small"
    | Some addr ->
        let o = Obj_.create ~id:i ~size () in
        o.Obj_.loc <- Obj_.Old;
        o.Obj_.addr <- addr;
        H1_heap.push_old heap o
  done;
  let span = heap.H1_heap.old_top in
  for i = 0 to dirty - 1 do
    Card_table.mark_dirty heap.H1_heap.cards ~addr:(i * span / dirty)
  done;
  heap

let linear_scan (heap : H1_heap.t) () =
  let ct = heap.H1_heap.cards in
  let n = ref 0 in
  Vec.iter
    (fun (o : Obj_.t) ->
      if Card_table.is_dirty ct ~card:(Card_table.card_of_addr ct o.Obj_.addr)
      then incr n)
    heap.H1_heap.old_objs;
  !n

let index_scan (heap : H1_heap.t) () =
  let n = ref 0 in
  Card_table.iter_dirty_ranges heap.H1_heap.cards (fun _card lo hi ->
      for i = lo to hi - 1 do
        ignore (Vec.get heap.H1_heap.old_objs i : Obj_.t);
        incr n
      done);
  !n

let test_rset name scan ~objs ~dirty =
  let heap = make_old_heap ~objs ~dirty in
  Test.make ~name (Staged.stage (fun () -> ignore (scan heap ())))

let rset_benchmarks =
  [
    test_rset "rset linear scan 64k objs/16 dirty" linear_scan ~objs:65536
      ~dirty:16;
    test_rset "rset index scan 64k objs/16 dirty" index_scan ~objs:65536
      ~dirty:16;
    test_rset "rset index scan 8k objs/16 dirty" index_scan ~objs:8192
      ~dirty:16;
    test_rset "rset index scan 64k objs/256 dirty" index_scan ~objs:65536
      ~dirty:256;
  ]

module Page_cache = Th_device.Page_cache
module Runtime = Th_psgc.Runtime

(* The DR2 page cache every mmap'd H2 access goes through. A hit touches
   one resident page; a miss faults a page two past the previous one (a
   random read, never a readahead continuation) into a full cache, so it
   also evicts the least recently used page. *)
let make_cache () =
  let clock = Clock.create () in
  let device = Th_device.Device.create clock Th_device.Device.Nvme_ssd in
  Page_cache.create ~capacity_bytes:(Size.mib 1) clock device

let test_cache_hit =
  let cache = make_cache () in
  Page_cache.access cache ~cat:Clock.Other ~write:false ~offset:0 ~len:64;
  Test.make ~name:"page cache hit (resident page)"
    (Staged.stage (fun () ->
         Page_cache.access cache ~cat:Clock.Other ~write:false ~offset:0
           ~len:64))

let test_cache_miss =
  let cache = make_cache () in
  let page = ref 0 in
  Test.make ~name:"page cache miss (cold page)"
    (Staged.stage (fun () ->
         page := !page + 2;
         Page_cache.access cache ~cat:Clock.Other ~write:false
           ~offset:(!page * Page_cache.page_size cache)
           ~len:64))

(* A 4 KiB dead-on-arrival temporary (the size of stage garbage), as a
   dropped [Temp] record and through [Runtime.alloc_dead]. Both include
   their amortised share of the minor GCs they trigger. *)
let make_runtime () =
  let clock = Clock.create () in
  let heap = H1_heap.create ~heap_bytes:(Size.mib 64) () in
  Runtime.create ~clock ~costs:Costs.default ~heap ()

let test_alloc_temp_record =
  let rt = make_runtime () in
  Test.make ~name:"alloc Temp record"
    (Staged.stage (fun () ->
         ignore (Runtime.alloc rt ~kind:Obj_.Temp ~size:(Size.kib 4) ())))

let test_alloc_dead =
  let rt = make_runtime () in
  Test.make ~name:"alloc_dead"
    (Staged.stage (fun () -> Runtime.alloc_dead rt ~size:(Size.kib 4)))

let benchmarks =
  [ test_card_mark; test_card_scan; test_region_cycle; test_closure; test_h1_cards ]
  @ rset_benchmarks
  @ [ test_cache_hit; test_cache_miss; test_alloc_temp_record; test_alloc_dead ]

(* One cell per bechamel test: each cell runs its benchmark and returns
   name-sorted [(name, estimate option)] rows; the render only prints. *)
let measure test =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let results =
    Benchmark.all cfg instances test
    |> fun raw ->
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  (* th-lint: allow hashtbl-order — collected into a list and sorted by
     name below before printing. *)
  Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> (name, Some est)
         | _ -> (name, None))

let plan () =
  let b = Th_exec.Plan.create () in
  let rows =
    Th_exec.Plan.cell_list b ~label:"micro"
      (List.map (fun test () -> measure test) benchmarks)
  in
  Th_exec.Plan.seal b ~render:(fun () ->
      List.iter
        (List.iter (fun (name, est) ->
             match est with
             | Some est -> Printf.printf "%-40s %12.1f ns/op\n" name est
             | None -> Printf.printf "%-40s (no estimate)\n" name))
        (Th_exec.Plan.get rows))

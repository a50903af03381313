(* Tests for the storage substrate: device cost model, traffic counters,
   LRU page cache, readahead detection, writeback. *)

open Th_sim
module Device = Th_device.Device
module Page_cache = Th_device.Page_cache

let fresh_device ?(kind = Device.Nvme_ssd) () =
  let clock = Clock.create () in
  (clock, Device.create clock kind)

let test_random_read_amplification () =
  let _, d = fresh_device () in
  (* A 100-byte random read is charged a whole 4 KiB page. *)
  Device.read d ~cat:Clock.Other ~random:true 100;
  Alcotest.(check int) "amplified to a page" 4096 (Device.stats d).Device.bytes_read

let test_sequential_read_not_amplified () =
  let _, d = fresh_device () in
  Device.read d ~cat:Clock.Other ~random:false 100;
  Alcotest.(check int) "charged as-is" 100 (Device.stats d).Device.bytes_read

let test_random_dearer_than_sequential () =
  let _, d = fresh_device () in
  let seq = Device.read_cost_ns d ~random:false (Size.kib 64) in
  let rand = Device.read_cost_ns d ~random:true (Size.kib 64) in
  Alcotest.(check bool) "random pays per-page latencies" true (rand > seq)

let test_nvme_slower_than_nvm () =
  let _, nvme = fresh_device () in
  let _, nvm = fresh_device ~kind:Device.Nvm_app_direct () in
  (* Byte-addressable NVM wins on small random accesses: a 256 B load
     costs one 256 B block, while the SSD pays a whole 4 KiB page. *)
  Alcotest.(check bool) "NVM random reads are cheaper" true
    (Device.read_cost_ns nvm ~random:true 256
    < Device.read_cost_ns nvme ~random:true 256)

let test_rmw_counts_both_directions () =
  let _, d = fresh_device () in
  Device.read_modify_write d ~cat:Clock.Other 1000;
  let s = Device.stats d in
  Alcotest.(check int) "read side" 4096 s.Device.bytes_read;
  Alcotest.(check int) "write side" 4096 s.Device.bytes_written

let test_clock_charged () =
  let clock, d = fresh_device () in
  Device.read d ~cat:Clock.Serde_io ~random:true 4096;
  let b = Clock.breakdown clock in
  Alcotest.(check bool) "charged to s/d+io" true (b.Clock.serde_io_ns > 0.0);
  Alcotest.(check (float 0.0)) "not to other" 0.0 b.Clock.other_ns

let fresh_cache ?(capacity = Size.kib 64) () =
  let clock = Clock.create () in
  let d = Device.create clock Device.Nvme_ssd in
  (clock, d, Page_cache.create ~capacity_bytes:capacity clock d)

let test_cache_hit_after_miss () =
  let _, _, c = fresh_cache () in
  Page_cache.access c ~cat:Clock.Other ~write:false ~offset:0 ~len:100;
  Page_cache.access c ~cat:Clock.Other ~write:false ~offset:0 ~len:100;
  let s = Page_cache.stats c in
  Alcotest.(check int) "one miss" 1 s.Page_cache.misses;
  Alcotest.(check int) "one hit" 1 s.Page_cache.hits

let test_cache_lru_eviction () =
  (* Capacity 16 pages; touch 17 distinct pages; the first is evicted. *)
  let _, _, c = fresh_cache () in
  for i = 0 to 16 do
    Page_cache.access c ~cat:Clock.Other ~write:false ~offset:(i * 4096) ~len:1
  done;
  Alcotest.(check int) "resident capped" 16 (Page_cache.resident_pages c);
  Page_cache.access c ~cat:Clock.Other ~write:false ~offset:0 ~len:1;
  let s = Page_cache.stats c in
  Alcotest.(check int) "page 0 missed again" 18 s.Page_cache.misses

let test_cache_dirty_writeback_on_eviction () =
  let _, d, c = fresh_cache () in
  Page_cache.access c ~cat:Clock.Other ~write:true ~offset:0 ~len:100;
  for i = 1 to 16 do
    Page_cache.access c ~cat:Clock.Other ~write:false ~offset:(i * 4096) ~len:1
  done;
  Alcotest.(check bool) "dirty page written back" true
    ((Device.stats d).Device.bytes_written >= 4096)

let test_cache_invalidate_skips_writeback () =
  let _, d, c = fresh_cache () in
  Page_cache.access c ~cat:Clock.Other ~write:true ~offset:0 ~len:4096;
  let written_before = (Device.stats d).Device.bytes_written in
  Page_cache.invalidate_range c ~offset:0 ~len:4096;
  Alcotest.(check int) "no writeback on invalidate" written_before
    (Device.stats d).Device.bytes_written;
  Alcotest.(check int) "page dropped" 0 (Page_cache.resident_pages c)

let test_cache_readahead_cheaper () =
  (* Sequential stream across calls: later misses are charged at
     bandwidth without per-request latency. *)
  let run offsets =
    let clock, _, c = fresh_cache ~capacity:(Size.mib 4) () in
    List.iter
      (fun off ->
        Page_cache.access c ~cat:Clock.Other ~write:false ~offset:off
          ~len:4096)
      offsets;
    Clock.now_ns clock
  in
  let sequential = run [ 0; 4096; 8192; 12288; 16384 ] in
  let scattered = run [ 0; 40960; 8192; 53248; 16384 ] in
  Alcotest.(check bool) "sequential stream cheaper" true
    (sequential < scattered)

let test_cache_flush () =
  let _, d, c = fresh_cache () in
  Page_cache.access c ~cat:Clock.Other ~write:true ~offset:0 ~len:8192;
  Page_cache.flush c ~cat:Clock.Other;
  Alcotest.(check bool) "flush wrote dirty pages" true
    ((Device.stats d).Device.bytes_written >= 8192)

let prop_cache_resident_bounded =
  QCheck.Test.make ~name:"page cache never exceeds capacity" ~count:100
    QCheck.(list (int_range 0 255))
    (fun pages ->
      let _, _, c = fresh_cache ~capacity:(Size.kib 32) () in
      List.iter
        (fun p ->
          Page_cache.access c ~cat:Clock.Other ~write:(p mod 3 = 0)
            ~offset:(p * 4096) ~len:4096)
        pages;
      Page_cache.resident_pages c <= Page_cache.capacity_pages c)

(* --- model check against a reference LRU ---------------------------- *)

(* A list-based LRU with the page cache's specified semantics, written
   for clarity rather than speed: pages most recently used first, each
   with its dirty flag. It drives its own device and clock with the same
   calls in the same order as the cache should, so traffic counters and
   clock categories can be compared bit for bit. *)
module Ref_lru = struct
  type t = {
    device : Device.t;
    clock : Clock.t;
    page_size : int;
    capacity : int;
    mutable pages : (int * bool ref) list;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable writebacks : int;
    mutable last_miss_page : int;
  }

  let create ~capacity_bytes clock device =
    let page_size = Device.page_size device in
    {
      device;
      clock;
      page_size;
      capacity = max 1 (capacity_bytes / page_size);
      pages = [];
      hits = 0;
      misses = 0;
      evictions = 0;
      writebacks = 0;
      last_miss_page = min_int;
    }

  let pages_of r ~offset ~len =
    List.init
      (((offset + len - 1) / r.page_size) - (offset / r.page_size) + 1)
      (fun i -> (offset / r.page_size) + i)

  let insert r ~cat page ~dirty =
    while List.length r.pages >= r.capacity do
      match List.rev r.pages with
      | [] -> ()
      | (victim, d) :: _ ->
          r.pages <- List.remove_assoc victim r.pages;
          r.evictions <- r.evictions + 1;
          if !d then begin
            r.writebacks <- r.writebacks + 1;
            Device.write r.device ~cat ~random:true r.page_size
          end
    done;
    r.pages <- (page, ref dirty) :: r.pages

  let access r ~cat ~write ~offset ~len =
    if len > 0 then begin
      let run = ref [] in
      let flush_run () =
        match List.rev !run with
        | [] -> ()
        | start :: _ as pages ->
            let n = List.length pages in
            let bytes = n * r.page_size in
            if start = r.last_miss_page + 1 then
              Device.read_continuation r.device ~cat
                ~overlap:(if cat = Clock.Other then 0.35 else 1.0)
                bytes
            else Device.read r.device ~cat ~random:(n = 1) bytes;
            r.last_miss_page <- start + n - 1;
            run := []
      in
      List.iter
        (fun page ->
          match List.assoc_opt page r.pages with
          | Some d ->
              flush_run ();
              r.hits <- r.hits + 1;
              if write then d := true;
              r.pages <- (page, d) :: List.remove_assoc page r.pages;
              Clock.advance r.clock cat 10.0
          | None ->
              r.misses <- r.misses + 1;
              let whole_page_write =
                write && offset <= page * r.page_size
                && offset + len >= (page + 1) * r.page_size
              in
              if whole_page_write then flush_run () else run := page :: !run;
              insert r ~cat page ~dirty:write)
        (pages_of r ~offset ~len);
      flush_run ()
    end

  let invalidate_range r ~offset ~len =
    if len > 0 then
      List.iter
        (fun page -> r.pages <- List.remove_assoc page r.pages)
        (pages_of r ~offset ~len)

  let flush r ~cat =
    let dirty = List.filter (fun (_, d) -> !d) r.pages in
    List.iter (fun (_, d) -> d := false) dirty;
    let n = List.length dirty in
    if n > 0 then begin
      r.writebacks <- r.writebacks + n;
      Device.write r.device ~cat ~random:false (n * r.page_size)
    end
end

type cache_op =
  | Access of { cat : Clock.category; write : bool; offset : int; len : int }
  | Invalidate of { offset : int; len : int }
  | Flush

let cache_op_gen =
  QCheck.Gen.(
    let page = int_range 0 23 in
    let cat = oneofl [ Clock.Other; Clock.Serde_io; Clock.Major_gc ] in
    frequency
      [
        (* Arbitrary byte spans, from a few bytes to several pages. *)
        ( 6,
          map4
            (fun cat write (p, within) len ->
              Access { cat; write; offset = (p * 4096) + within; len })
            cat bool (pair page (int_range 0 4095)) (int_range 0 (5 * 4096)) );
        (* Page-aligned multi-page spans: whole-page writes skip the
           fetch. *)
        ( 3,
          map4
            (fun cat write p n ->
              Access { cat; write; offset = p * 4096; len = n * 4096 })
            cat bool page (int_range 1 4) );
        ( 1,
          map2
            (fun p n -> Invalidate { offset = p * 4096; len = n * 4096 })
            page (int_range 1 3) );
        (1, return Flush);
      ])

let cache_op_to_string = function
  | Access { cat; write; offset; len } ->
      Printf.sprintf "Access(%s,%b,%d,%d)"
        (match cat with
        | Clock.Other -> "other"
        | Clock.Serde_io -> "serde"
        | Clock.Minor_gc -> "minor"
        | Clock.Major_gc -> "major")
        write offset len
  | Invalidate { offset; len } -> Printf.sprintf "Invalidate(%d,%d)" offset len
  | Flush -> "Flush"

let breakdown_bits clock =
  let b = Clock.breakdown clock in
  Printf.sprintf "%h %h %h %h" b.Clock.other_ns b.Clock.serde_io_ns
    b.Clock.minor_gc_ns b.Clock.major_gc_ns

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"page cache matches a reference LRU bit for bit"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map cache_op_to_string ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 80) cache_op_gen))
    (fun ops ->
      let capacity_bytes = Size.kib 32 in
      let clock, d, c = fresh_cache ~capacity:capacity_bytes () in
      let rclock, rd = fresh_device () in
      let r = Ref_lru.create ~capacity_bytes rclock rd in
      (* Start both clocks where a nanosecond is below the last bit, so
         that reordering two charges to one category changes the
         rounded sum. *)
      List.iter
        (fun clock ->
          List.iter
            (fun cat -> Clock.advance clock cat (1e17 /. 3.0))
            [ Clock.Other; Clock.Serde_io; Clock.Major_gc ])
        [ clock; rclock ];
      List.iter
        (function
          | Access { cat; write; offset; len } ->
              Page_cache.access c ~cat ~write ~offset ~len;
              Ref_lru.access r ~cat ~write ~offset ~len
          | Invalidate { offset; len } ->
              Page_cache.invalidate_range c ~offset ~len;
              Ref_lru.invalidate_range r ~offset ~len
          | Flush ->
              Page_cache.flush c ~cat:Clock.Other;
              Ref_lru.flush r ~cat:Clock.Other)
        ops;
      let render ~hits ~misses ~evictions ~writebacks ~resident device clock =
        let ds = Device.stats device in
        Printf.sprintf
          "hits %d misses %d evictions %d writebacks %d resident %d | read \
           %d B in %d ops, wrote %d B in %d ops | clock %s"
          hits misses evictions writebacks resident ds.Device.bytes_read
          ds.Device.read_ops ds.Device.bytes_written ds.Device.write_ops
          (breakdown_bits clock)
      in
      let s = Page_cache.stats c in
      let got =
        render ~hits:s.Page_cache.hits ~misses:s.Page_cache.misses
          ~evictions:s.Page_cache.evictions ~writebacks:s.Page_cache.writebacks
          ~resident:(Page_cache.resident_pages c) d clock
      in
      let want =
        render ~hits:r.Ref_lru.hits ~misses:r.Ref_lru.misses
          ~evictions:r.Ref_lru.evictions ~writebacks:r.Ref_lru.writebacks
          ~resident:(List.length r.Ref_lru.pages) rd rclock
      in
      String.equal got want
      || QCheck.Test.fail_reportf "cache:     %s\nreference: %s" got want)

(* A checked access whose device read fails must not leave its miss run
   behind: the next access charges only its own pages. *)
let test_cache_fresh_run_after_io_error () =
  let always_fail =
    { Th_sim.Fault.zero with Th_sim.Fault.seed = 1L; read_error_rate = 1.0 }
  in
  let clock = Clock.create () in
  let d =
    Device.create ~faults:(Th_sim.Fault.create always_fail) clock
      Device.Nvme_ssd
  in
  let c = Page_cache.create ~capacity_bytes:(Size.mib 1) clock d in
  (match
     Page_cache.access ~checked:true c ~cat:Clock.Serde_io ~write:false
       ~offset:0 ~len:(3 * 4096)
   with
  | () -> Alcotest.fail "checked access succeeded under 100% read errors"
  | exception Th_device.Io_retry.Io_error _ -> ());
  let before = Device.stats d in
  Page_cache.access c ~cat:Clock.Serde_io ~write:false ~offset:(10 * 4096)
    ~len:1;
  let after = Device.stats d in
  Alcotest.(check int) "one read request" 1
    (after.Device.read_ops - before.Device.read_ops);
  Alcotest.(check int) "one random page read" 4096
    (after.Device.bytes_read - before.Device.bytes_read)

let suite =
  [
    Alcotest.test_case "random reads amplified to pages" `Quick
      test_random_read_amplification;
    Alcotest.test_case "sequential reads not amplified" `Quick
      test_sequential_read_not_amplified;
    Alcotest.test_case "random dearer than sequential" `Quick
      test_random_dearer_than_sequential;
    Alcotest.test_case "NVM cheaper than NVMe for small reads" `Quick
      test_nvme_slower_than_nvm;
    Alcotest.test_case "rmw counts both directions" `Quick
      test_rmw_counts_both_directions;
    Alcotest.test_case "device charges the right clock category" `Quick
      test_clock_charged;
    Alcotest.test_case "cache hit after miss" `Quick test_cache_hit_after_miss;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "dirty writeback on eviction" `Quick
      test_cache_dirty_writeback_on_eviction;
    Alcotest.test_case "invalidate skips writeback" `Quick
      test_cache_invalidate_skips_writeback;
    Alcotest.test_case "readahead makes streams cheaper" `Quick
      test_cache_readahead_cheaper;
    Alcotest.test_case "flush writes dirty pages" `Quick test_cache_flush;
    QCheck_alcotest.to_alcotest prop_cache_resident_bounded;
    QCheck_alcotest.to_alcotest prop_cache_matches_reference;
    Alcotest.test_case "fresh miss run after a checked I/O error" `Quick
      test_cache_fresh_run_after_io_error;
  ]

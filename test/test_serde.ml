(* Tests for the Kryo-like serializer model. *)

open Th_sim
module Obj_ = Th_objmodel.Heap_object
module H1_heap = Th_minijvm.H1_heap
module Runtime = Th_psgc.Runtime
module Serializer = Th_serde.Serializer

let fresh_rt ?(heap_bytes = Size.mib 16) () =
  let clock = Clock.create () in
  let heap = H1_heap.create ~heap_bytes () in
  Runtime.create ~clock ~costs:Costs.default ~heap ()

let build_group rt ~elems ~elem_size =
  let root = Runtime.alloc rt ~size:128 () in
  Runtime.add_root rt root;
  for _ = 1 to elems do
    let e = Runtime.alloc rt ~size:elem_size () in
    Runtime.write_ref rt root e
  done;
  root

let test_serialize_counts_closure () =
  let rt = fresh_rt () in
  let root = build_group rt ~elems:10 ~elem_size:100 in
  let s = Serializer.serialize rt root in
  Alcotest.(check int) "root + 10 elements" 11 s.Serializer.objects;
  Alcotest.(check bool) "stream smaller than heap form" true
    (s.Serializer.bytes < 128 + (10 * 100))

let test_serialize_charges_sd_time () =
  let rt = fresh_rt () in
  let root = build_group rt ~elems:10 ~elem_size:1000 in
  let before = (Clock.breakdown (Runtime.clock rt)).Clock.serde_io_ns in
  ignore (Serializer.serialize rt root);
  Alcotest.(check bool) "S/D time charged" true
    ((Clock.breakdown (Runtime.clock rt)).Clock.serde_io_ns > before)

let test_roundtrip_preserves_shape () =
  let rt = fresh_rt () in
  let root = build_group rt ~elems:20 ~elem_size:256 in
  let s = Serializer.serialize rt root in
  let root' = Serializer.deserialize rt s in
  Alcotest.(check int) "same element count" (Obj_.ref_count root)
    (Obj_.ref_count root');
  Alcotest.(check int) "same element size" 256
    (List.hd (Obj_.refs_list root')).Obj_.size;
  Alcotest.(check bool) "fresh objects" true (root != root');
  Runtime.remove_root rt root'

let test_deserialize_returns_pinned () =
  let rt = fresh_rt () in
  let root = build_group rt ~elems:5 ~elem_size:100 in
  let s = Serializer.serialize rt root in
  let root' = Serializer.deserialize rt s in
  (* Survives GC without any other anchor. *)
  Runtime.major_gc rt;
  Alcotest.(check bool) "pinned through GC" false (Obj_.is_freed root');
  Runtime.remove_root rt root';
  Runtime.major_gc rt;
  Alcotest.(check bool) "reclaimed after unpin" true (Obj_.is_freed root')

let test_serialize_rejects_jvm_metadata () =
  let rt = fresh_rt () in
  let root = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt root;
  let klass = Runtime.alloc rt ~kind:Obj_.Jvm_metadata ~size:64 () in
  Runtime.write_ref rt root klass;
  Alcotest.(check bool) "raises Not_serializable" true
    (try
       ignore (Serializer.serialize rt root);
       false
     with Serializer.Not_serializable _ -> true)

let test_serde_allocates_temporaries () =
  let rt = fresh_rt () in
  let root = build_group rt ~elems:200 ~elem_size:1024 in
  let heap = Runtime.heap rt in
  let used_before = H1_heap.live_bytes heap in
  ignore (Serializer.serialize rt root);
  (* Temp buffers are dead but occupy eden until the next minor GC. *)
  Alcotest.(check bool) "temporary heap pressure" true
    (H1_heap.live_bytes heap > used_before)

let test_charge_stream_parallelizes () =
  let run threads =
    let clock = Clock.create () in
    let heap = H1_heap.create ~heap_bytes:(Size.mib 16) () in
    let costs = Costs.with_mutator_threads Costs.default threads in
    let rt = Runtime.create ~clock ~costs ~heap () in
    Serializer.charge_stream rt ~bytes:(Size.mib 1) ~objects:1000;
    (Clock.breakdown clock).Clock.serde_io_ns
  in
  Alcotest.(check bool) "S/D parallelizes over mutator threads (§7.6)" true
    (run 16 < run 4)

let suite =
  [
    Alcotest.test_case "serialize walks the closure" `Quick
      test_serialize_counts_closure;
    Alcotest.test_case "serialize charges S/D time" `Quick
      test_serialize_charges_sd_time;
    Alcotest.test_case "roundtrip preserves group shape" `Quick
      test_roundtrip_preserves_shape;
    Alcotest.test_case "deserialize returns pinned root" `Quick
      test_deserialize_returns_pinned;
    Alcotest.test_case "JVM metadata is not serializable" `Quick
      test_serialize_rejects_jvm_metadata;
    Alcotest.test_case "S/D creates temporary heap pressure" `Quick
      test_serde_allocates_temporaries;
    Alcotest.test_case "S/D parallelizes across threads" `Quick
      test_charge_stream_parallelizes;
  ]

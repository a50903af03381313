open Th_sim
module Runtime = Th_psgc.Runtime
module Serializer = Th_serde.Serializer

let garbage_elem_bytes = Size.kib 4

let alloc_garbage ctx ~bytes =
  let rt = Context.runtime ctx in
  let n = bytes / garbage_elem_bytes in
  for _ = 1 to n do
    Runtime.alloc_dead rt ~size:garbage_elem_bytes
  done

let shuffle_chunk_bytes = Size.kib 64

let run ctx ?(shuffle_bytes = 0) ?(transient_bytes = 0)
    ?(thread_buffer_bytes = Size.kib 128) ~work () =
  let rt = Context.runtime ctx in
  let clock = Runtime.clock rt in
  (match Clock.tracer clock with
  | None -> ()
  | Some tr ->
      Th_trace.Recorder.span_begin tr ~ts:(Clock.now_ns clock) ~cat:"spark"
        ~name:"stage" ());
  let threads = (Runtime.costs rt).Costs.mutator_threads in
  let buffers =
    List.init threads (fun _ ->
        let b = Runtime.alloc rt ~size:thread_buffer_bytes () in
        Runtime.add_root rt b;
        b)
  in
  (* Map-output buffers fill up over the stage and stay live until it
     completes — under frequent minor GCs most of these bytes get
     promoted, which is the old-generation churn behind Spark's frequent
     full collections (§7.1). Spark's execution-memory manager spills to
     local disk beyond its share of the heap, so the pinned portion is
     capped; the spilled remainder is immediate garbage. *)
  let heap_bytes = Th_minijvm.H1_heap.heap_bytes (Runtime.heap rt) in
  let pinned_bytes = min shuffle_bytes (heap_bytes * 5 / 100) in
  let shuffle_buffers = ref [] in
  let n_chunks = pinned_bytes / shuffle_chunk_bytes in
  for _ = 1 to n_chunks do
    let b = Runtime.alloc rt ~size:shuffle_chunk_bytes () in
    Runtime.add_root rt b;
    shuffle_buffers := b :: !shuffle_buffers
  done;
  if shuffle_bytes > pinned_bytes then
    alloc_garbage ctx ~bytes:(shuffle_bytes - pinned_bytes);
  work ();
  if shuffle_bytes > 0 then begin
    (* Map-side serialize plus reduce-side deserialize. *)
    let objects = max 1 (shuffle_bytes / 512) in
    Serializer.charge_stream rt ~bytes:shuffle_bytes ~objects;
    Serializer.charge_stream rt ~bytes:shuffle_bytes ~objects
  end;
  if transient_bytes > 0 then alloc_garbage ctx ~bytes:transient_bytes;
  List.iter (fun b -> Runtime.remove_root rt b) !shuffle_buffers;
  List.iter (fun b -> Runtime.remove_root rt b) buffers;
  match Clock.tracer clock with
  | None -> ()
  | Some tr ->
      Th_trace.Recorder.span_end tr ~ts:(Clock.now_ns clock) ~cat:"spark"
        ~name:"stage"
        ~args:
          [
            ("shuffle_bytes", Th_trace.Event.Int shuffle_bytes);
            ("transient_bytes", Th_trace.Event.Int transient_bytes);
          ]
        ()

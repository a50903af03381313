type t = {
  lane : int;
  (* The ring. It starts at [min capacity initial_slots] slots and
     doubles while it is full and below [capacity]; it has only wrapped
     once it holds [capacity] slots. *)
  mutable slots : Event.t array;
  capacity : int;
  mutable written : int;  (* events ever recorded; next slot = written mod capacity *)
}

let default_capacity = 1 lsl 18

let initial_slots = 1024

let dummy_event =
  {
    Event.ts = 0.0;
    lane = 0;
    kind = Event.Instant;
    cat = "";
    name = "";
    args = [];
  }

let create ?(capacity = default_capacity) ~lane () =
  let capacity = max 16 capacity in
  {
    lane;
    slots = Array.make (min capacity initial_slots) dummy_event;
    capacity;
    written = 0;
  }

let lane t = t.lane

(* Before the ring reaches [capacity] nothing has wrapped, so the events
   sit in slots [0, written) and a copy keeps their positions. *)
let grow t =
  let n = Array.length t.slots in
  let slots = Array.make (min t.capacity (2 * n)) dummy_event in
  Array.blit t.slots 0 slots 0 n;
  t.slots <- slots

let record t ~ts ~kind ~cat ~name ~args =
  let slot = t.written mod t.capacity in
  if slot >= Array.length t.slots then grow t;
  t.slots.(slot) <- { Event.ts; lane = t.lane; kind; cat; name; args };
  t.written <- t.written + 1

let span_begin t ~ts ~cat ~name ?(args = []) () =
  record t ~ts ~kind:Event.Span_begin ~cat ~name ~args

let span_end t ~ts ~cat ~name ?(args = []) () =
  record t ~ts ~kind:Event.Span_end ~cat ~name ~args

let complete t ~ts ~dur_ns ~cat ~name ?(args = []) () =
  record t ~ts ~kind:(Event.Complete dur_ns) ~cat ~name ~args

let instant t ~ts ~cat ~name ?(args = []) () =
  record t ~ts ~kind:Event.Instant ~cat ~name ~args

let counter t ~ts ~cat ~name ~args =
  record t ~ts ~kind:Event.Counter ~cat ~name ~args

let length t = min t.written t.capacity

let total t = t.written

let dropped t = max 0 (t.written - t.capacity)

let events t =
  let n = length t in
  let first = t.written - n in
  List.init n (fun i -> t.slots.((first + i) mod t.capacity))

let clear t = t.written <- 0

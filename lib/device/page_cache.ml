type stats = { hits : int; misses : int; evictions : int; writebacks : int }

(* The page table is keyed by page number with a non-allocating hash:
   the polymorphic [Hashtbl.hash] and [find_opt]'s [Some] cell cost more
   than the rest of a hit. *)
module Page_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash p = p land max_int
end)

(* LRU list node. The list is circular through a sentinel, so links are
   never [None] and relinking allocates nothing. *)
type node = {
  page : int;
  mutable dirty : bool;
  mutable prev : node;
  mutable next : node;
}

type t = {
  device : Device.t;
  clock : Th_sim.Clock.t;
  page_size : int;
  capacity : int;  (* pages *)
  table : node Page_table.t;
  lru : node;
      (* sentinel: [lru.next] is the most recently used page, [lru.prev]
         the least recently used; [lru == lru.next] when empty *)
  mutable resident : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable last_miss_page : int;  (* readahead stream detection *)
  (* The run of consecutive missing pages of the current [access]. *)
  mutable miss_run : int;
  mutable run_start : int;
}

let create ?page_size ~capacity_bytes clock device =
  let page_size =
    match page_size with Some p -> p | None -> Device.page_size device
  in
  if page_size <= 0 then invalid_arg "Page_cache.create: page_size";
  let capacity = max 1 (capacity_bytes / page_size) in
  let rec lru = { page = -1; dirty = false; prev = lru; next = lru } in
  {
    device;
    clock;
    page_size;
    capacity;
    table = Page_table.create 4096;
    lru;
    resident = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    last_miss_page = min_int;
    miss_run = 0;
    run_start = 0;
  }

let page_size t = t.page_size

let device t = t.device

let capacity_pages t = t.capacity

(* Circular LRU list maintenance. *)

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  let head = t.lru.next in
  n.prev <- t.lru;
  n.next <- head;
  head.prev <- n;
  t.lru.next <- n

let touch_lru t n =
  if t.lru.next != n then begin
    unlink n;
    push_front t n
  end

let evict_one t ~cat =
  let n = t.lru.prev in
  if n != t.lru then begin
    unlink n;
    Page_table.remove t.table n.page;
    t.resident <- t.resident - 1;
    t.evictions <- t.evictions + 1;
    if n.dirty then begin
      t.writebacks <- t.writebacks + 1;
      Device.write t.device ~cat ~random:true t.page_size
    end
  end

let insert t ~cat page ~dirty =
  while t.resident >= t.capacity do
    evict_one t ~cat
  done;
  let n = { page; dirty; prev = t.lru; next = t.lru } in
  Page_table.replace t.table page n;
  push_front t n;
  t.resident <- t.resident + 1

(* A cached mmap access is an ordinary DRAM load; most of its cost is already
   accounted as mutator compute, so only a small residual is charged. *)
let hit_cost_ns _t = 10.0

(* Charge the pending run of consecutive misses as one device read. A
   run continuing the previous run's stream is charged at transfer
   bandwidth only: OS readahead has already queued it. *)
let flush_miss_run t ~cat ~checked =
  if t.miss_run > 0 then begin
    let bytes = t.miss_run * t.page_size in
    if t.run_start = t.last_miss_page + 1 then
      (* Mutator-side streaming faults overlap with computation
         (readahead prefetches while the application works); GC-side
         scans stall the collector. *)
      let overlap =
        match cat with Th_sim.Clock.Other -> 0.35 | _ -> 1.0
      in
      Device.read_continuation t.device ~cat ~overlap ~checked bytes
    else Device.read t.device ~cat ~random:(t.miss_run = 1) ~checked bytes;
    t.last_miss_page <- t.run_start + t.miss_run - 1;
    t.miss_run <- 0
  end

let access ?(checked = false) t ~cat ~write ~offset ~len =
  (* A checked read that raised left its run pending; every access
     starts a fresh one. *)
  t.miss_run <- 0;
  if len > 0 then begin
    let first = offset / t.page_size in
    let last = (offset + len - 1) / t.page_size in
    for page = first to last do
      match Page_table.find t.table page with
      | n ->
          flush_miss_run t ~cat ~checked;
          t.hits <- t.hits + 1;
          if write then n.dirty <- true;
          touch_lru t n;
          Th_sim.Clock.advance t.clock cat (hit_cost_ns t)
      | exception Not_found ->
          t.misses <- t.misses + 1;
          let whole_page_write =
            write && offset <= page * t.page_size
            && offset + len >= (page + 1) * t.page_size
          in
          if not whole_page_write then begin
            if t.miss_run = 0 then t.run_start <- page;
            t.miss_run <- t.miss_run + 1
          end
          else flush_miss_run t ~cat ~checked;
          insert t ~cat page ~dirty:write
    done;
    flush_miss_run t ~cat ~checked
  end

let invalidate_range t ~offset ~len =
  if len > 0 then begin
    let first = offset / t.page_size in
    let last = (offset + len - 1) / t.page_size in
    (* Most pages of a freed region are not resident: [find_opt] makes
       that common case cheaper than raising [Not_found]. *)
    for page = first to last do
      match Page_table.find_opt t.table page with
      | Some n ->
          unlink n;
          Page_table.remove t.table page;
          t.resident <- t.resident - 1
      | None -> ()
    done
  end

let flush t ~cat =
  let dirty = ref 0 in
  (* Order-insensitive: only counts and clears each page's dirty flag.
     th-lint: allow hashtbl-order *)
  Page_table.iter
    (fun _ n ->
      if n.dirty then begin
        incr dirty;
        n.dirty <- false
      end)
    t.table;
  if !dirty > 0 then begin
    (match Th_sim.Clock.tracer t.clock with
    | None -> ()
    | Some tr ->
        Th_trace.Recorder.instant tr
          ~ts:(Th_sim.Clock.now_ns t.clock)
          ~cat:"cache" ~name:"flush"
          ~args:[ ("pages", Th_trace.Event.Int !dirty) ]
          ());
    t.writebacks <- t.writebacks + !dirty;
    Device.write t.device ~cat ~random:false (!dirty * t.page_size)
  end

let resident_pages t = t.resident

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    writebacks = t.writebacks;
  }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.writebacks <- 0

let hit_ratio (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 1.0 else float_of_int s.hits /. float_of_int total

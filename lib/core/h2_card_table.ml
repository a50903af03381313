type state = Clean | Dirty | Young_gen | Old_gen

(* The three ways a card changes state, distinguished so an observer can
   judge the legality of each transition. [Recompute] carries the state
   the collector *asked* for — under boundary-card stickiness the card
   may lawfully stay [Dirty] instead. *)
type event = Barrier_dirty | Recompute of state | Bulk_clear

type t = {
  segment_size : int;
  stripe_aligned : bool;
  stripe_size : int;
  num_segments : int;
  (* State bytes for a prefix of the [num_segments] segments, grown by
     doubling when a segment past it is written: a segment beyond the
     prefix is clean, so a fresh table touches no memory it has not
     needed. Every bounds check a fully sized table would make is the
     coverage check here. *)
  mutable cards : Bytes.t;
  mutable non_clean : int;
  mutable on_transition :
    (seg:int -> before:state -> after:state -> event -> unit) option;
  mutable trace_clock : Th_sim.Clock.t option;
}

let byte_of_state = function
  | Clean -> '\000'
  | Dirty -> '\001'
  | Young_gen -> '\002'
  | Old_gen -> '\003'

let state_of_byte = function
  | '\000' -> Clean
  | '\001' -> Dirty
  | '\002' -> Young_gen
  | '\003' -> Old_gen
  | _ -> invalid_arg "H2_card_table: corrupt card state byte"

let create ?(segment_size = 4096) ?(stripe_aligned = true)
    ?(stripe_size = 0) ~capacity_bytes () =
  if segment_size <= 0 then invalid_arg "H2_card_table.create: segment_size";
  let num_segments =
    max 1 ((capacity_bytes + segment_size - 1) / segment_size)
  in
  let stripe_size = if stripe_size <= 0 then capacity_bytes else stripe_size in
  {
    segment_size;
    stripe_aligned;
    stripe_size;
    num_segments;
    cards = Bytes.empty;
    non_clean = 0;
    on_transition = None;
    trace_clock = None;
  }

let set_transition_hook t f = t.on_transition <- f

let set_trace_clock t clock = t.trace_clock <- clock

let state_name = function
  | Clean -> "clean"
  | Dirty -> "dirty"
  | Young_gen -> "young"
  | Old_gen -> "old"

let trace_transition t ~seg ~before ~after ev =
  (* Only real state changes are recorded — the observer hook still sees
     suppressed sticky-boundary no-ops, but tracing them would swamp the
     ring with barrier noise. *)
  if before <> after then
    match t.trace_clock with
    | None -> ()
    | Some clock -> (
        match Th_sim.Clock.tracer clock with
        | None -> ()
        | Some tr ->
            let name =
              match ev with
              | Barrier_dirty -> "barrier_dirty"
              | Recompute _ -> "recompute"
              | Bulk_clear -> "bulk_clear"
            in
            Th_trace.Recorder.instant tr
              ~ts:(Th_sim.Clock.now_ns clock)
              ~cat:"card" ~name
              ~args:
                [
                  ("seg", Th_trace.Event.Int seg);
                  ("before", Th_trace.Event.Str (state_name before));
                  ("after", Th_trace.Event.Str (state_name after));
                ]
              ())

let notify t ~seg ~before ~after ev =
  trace_transition t ~seg ~before ~after ev;
  match t.on_transition with
  | None -> ()
  | Some f -> f ~seg ~before ~after ev

let segment_size t = t.segment_size

let num_segments t = t.num_segments

(* What a fully sized table raises for an address or a segment index
   outside it. *)
let address_error = "H2_card_table.segment_of: address out of range"

let index_error = "index out of bounds"

let segment_of t ~gaddr =
  let s = gaddr / t.segment_size in
  if s < 0 || s >= t.num_segments then invalid_arg address_error;
  s

(* Cold path of the coverage checks: widen the covered prefix to segment
   [seg], or raise [error] for a segment outside the table. *)
let cover t seg error =
  if seg < 0 || seg >= t.num_segments then invalid_arg error;
  let len = Bytes.length t.cards in
  let n = min t.num_segments (max (seg + 1) (max 64 (2 * len))) in
  let cards = Bytes.make n '\000' in
  Bytes.blit t.cards 0 cards 0 len;
  t.cards <- cards

(* [Bytes.get]'s own bounds check doubles as the coverage check: only a
   read outside the prefix takes the handler. *)
let state t ~seg =
  match Bytes.get t.cards seg with
  | b -> state_of_byte b
  | exception Invalid_argument _ ->
      if seg < 0 || seg >= t.num_segments then invalid_arg index_error;
      Clean

(* In the unaligned (vanilla) layout, the first and last card of each
   stripe may be touched by two GC threads, so the collector never cleans
   them once dirty (§3.4). *)
let is_boundary t seg =
  let segs_per_stripe = max 1 (t.stripe_size / t.segment_size) in
  let pos = seg mod segs_per_stripe in
  pos = 0 || pos = segs_per_stripe - 1

(* [seg] must be covered. *)
let set_covered t seg after =
  let before = Bytes.unsafe_get t.cards seg in
  if before <> after then begin
    if before = '\000' then t.non_clean <- t.non_clean + 1;
    if after = '\000' then t.non_clean <- t.non_clean - 1;
    Bytes.unsafe_set t.cards seg after
  end

let raw_set t seg st =
  if seg < 0 || seg >= Bytes.length t.cards then cover t seg index_error;
  set_covered t seg (byte_of_state st)

let set_state t ~seg st =
  let before = state t ~seg in
  let sticky =
    (not t.stripe_aligned) && is_boundary t seg && before = Dirty && st <> Dirty
  in
  if not sticky then raw_set t seg st;
  notify t ~seg ~before ~after:(state t ~seg) (Recompute st)

let mark_dirty t ~gaddr =
  let seg = gaddr / t.segment_size in
  if seg < 0 || seg >= Bytes.length t.cards then cover t seg address_error;
  let before = state_of_byte (Bytes.unsafe_get t.cards seg) in
  set_covered t seg (byte_of_state Dirty);
  notify t ~seg ~before ~after:Dirty Barrier_dirty

let iter_scan ~include_old t ~lo ~hi f =
  let hi = min hi (Bytes.length t.cards) in
  for seg = max 0 lo to hi - 1 do
    match state_of_byte (Bytes.unsafe_get t.cards seg) with
    | Clean -> ()
    | Dirty -> f seg Dirty
    | Young_gen -> f seg Young_gen
    | Old_gen -> if include_old then f seg Old_gen
  done

let iter_minor_scan t ~lo ~hi f = iter_scan ~include_old:false t ~lo ~hi f

let iter_major_scan t ~lo ~hi f = iter_scan ~include_old:true t ~lo ~hi f

let clear_range t ~lo ~hi =
  let hi = min hi (Bytes.length t.cards) in
  for seg = max 0 lo to hi - 1 do
    let before = state t ~seg in
    raw_set t seg Clean;
    if before <> Clean then notify t ~seg ~before ~after:Clean Bulk_clear
  done

let non_clean_count t = t.non_clean

let metadata_bytes t = t.num_segments

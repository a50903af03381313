(* Tests for H1 heap layout/accounting and the two card tables. *)

open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Card_table = Th_minijvm.Card_table
module H1_heap = Th_minijvm.H1_heap
module H2_card_table = Th_core.H2_card_table

(* ---- H1 card table ---- *)

let test_card_mark_and_clear () =
  let ct = Card_table.create ~capacity_bytes:(Size.kib 64) () in
  Card_table.mark_dirty ct ~addr:1000;
  let card = Card_table.card_of_addr ct 1000 in
  Alcotest.(check bool) "dirty" true (Card_table.is_dirty ct ~card);
  Alcotest.(check int) "count" 1 (Card_table.dirty_count ct);
  Card_table.mark_dirty ct ~addr:1001;
  Alcotest.(check int) "same card counted once" 1 (Card_table.dirty_count ct);
  Card_table.clear_card ct ~card;
  Alcotest.(check bool) "cleared" false (Card_table.is_dirty ct ~card);
  Alcotest.(check int) "count back to zero" 0 (Card_table.dirty_count ct)

let test_card_512b_granularity () =
  let ct = Card_table.create ~capacity_bytes:(Size.kib 64) () in
  Alcotest.(check int) "512B cards" 128 (Card_table.num_cards ct);
  Alcotest.(check bool) "adjacent bytes share a card" true
    (Card_table.card_of_addr ct 0 = Card_table.card_of_addr ct 511);
  Alcotest.(check bool) "next card at 512" false
    (Card_table.card_of_addr ct 511 = Card_table.card_of_addr ct 512)

let test_card_out_of_range () =
  let ct = Card_table.create ~capacity_bytes:(Size.kib 4) () in
  Alcotest.check_raises "address out of range"
    (Invalid_argument "Card_table.card_of_addr: address out of range")
    (fun () -> Card_table.mark_dirty ct ~addr:(Size.kib 4))

(* Objects at 0 and 100 (card 0), 1500 (card 2) and 5000 (card 9, past
   the 4 KiB table: precompaction may place survivors there). *)
let test_card_object_start_index () =
  let ct = Card_table.create ~capacity_bytes:(Size.kib 4) () in
  List.iter
    (fun addr -> Card_table.note_object_start ct ~addr)
    [ 0; 100; 1500; 5000 ];
  let range card =
    ( Card_table.start_index ct ~card,
      Card_table.start_index ct ~card:(card + 1) )
  in
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "card 0 owns positions 0-1" (0, 2) (range 0);
  Alcotest.check pair "card 1 owns nothing" (2, 2) (range 1);
  Alcotest.check pair "card 2 owns position 2" (2, 3) (range 2);
  Alcotest.check pair "card past the table" (3, 4) (range 9);
  Alcotest.check pair "cards past the last object" (4, 4) (range 20);
  Card_table.mark_dirty ct ~addr:600;
  Card_table.mark_dirty ct ~addr:1100;
  let seen = ref [] in
  Card_table.iter_dirty_ranges ct (fun card lo hi ->
      seen := (card, lo, hi) :: !seen);
  Alcotest.(check (list (triple int int int)))
    "only dirty cards owning objects" [ (2, 2, 3) ] !seen;
  Alcotest.check_raises "out of address order"
    (Invalid_argument
       "Card_table.note_object_start: address below the last object")
    (fun () -> Card_table.note_object_start ct ~addr:1000);
  Card_table.reset_index ct;
  Alcotest.(check int) "reset empties the index" 0
    (Card_table.indexed_objects ct);
  Alcotest.check pair "reset card range" (0, 0) (range 2)

(* ---- H1 heap ---- *)

let test_h1_sizing_defaults () =
  (* NewRatio=2, SurvivorRatio=8: young = heap/3, eden = 8/10 young. *)
  let h = H1_heap.create ~heap_bytes:(Size.mib 30) () in
  Alcotest.(check int) "young third" (Size.mib 10) (H1_heap.young_bytes h);
  Alcotest.(check int) "old two thirds" (Size.mib 20) h.H1_heap.old_capacity;
  Alcotest.(check int) "eden 8/10 of young" (Size.mib 8) h.H1_heap.eden_capacity;
  Alcotest.(check int) "whole heap accounted" (Size.mib 30) (H1_heap.heap_bytes h)

let test_h1_alloc_accounting () =
  let h = H1_heap.create ~heap_bytes:(Size.mib 3) () in
  (match H1_heap.alloc h ~kind:Obj_.Data ~size:1000 with
  | H1_heap.Allocated o ->
      Alcotest.(check int) "eden used" (Obj_.total_size o) h.H1_heap.eden_used
  | _ -> Alcotest.fail "expected allocation");
  Alcotest.(check bool) "occupancy positive" true (H1_heap.occupancy h > 0.0)

let test_h1_eden_full () =
  let h = H1_heap.create ~heap_bytes:(Size.kib 300) () in
  let rec fill n =
    match H1_heap.alloc h ~kind:Obj_.Data ~size:(Size.kib 4) with
    | H1_heap.Allocated _ when n < 1000 -> fill (n + 1)
    | H1_heap.Allocated _ -> Alcotest.fail "eden never filled"
    | H1_heap.Eden_full -> ()
    | H1_heap.Old_full -> Alcotest.fail "unexpected old-full"
  in
  fill 0

let test_h1_large_object_goes_old () =
  let h = H1_heap.create ~heap_bytes:(Size.mib 3) () in
  let big = (h.H1_heap.eden_capacity / 2) + 100 in
  match H1_heap.alloc h ~kind:Obj_.Array_data ~size:big with
  | H1_heap.Allocated o ->
      Alcotest.(check bool) "old gen" true (o.Obj_.loc = Obj_.Old);
      Alcotest.(check bool) "address assigned" true (o.Obj_.addr >= 0)
  | _ -> Alcotest.fail "expected old-gen allocation"

let test_h1_old_bump_allocation () =
  let h = H1_heap.create ~heap_bytes:(Size.mib 3) () in
  let a1 = H1_heap.old_alloc_addr h 100 in
  let a2 = H1_heap.old_alloc_addr h 100 in
  Alcotest.(check (option int)) "first at 0" (Some 0) a1;
  Alcotest.(check (option int)) "bumped" (Some 100) a2;
  Alcotest.(check int) "used tracked" 200 h.H1_heap.old_used

let test_h1_old_full () =
  let h = H1_heap.create ~heap_bytes:(Size.mib 3) () in
  Alcotest.(check (option int)) "over capacity refused" None
    (H1_heap.old_alloc_addr h (Size.mib 4))

let test_h1_double_free_detected () =
  let h = H1_heap.create ~heap_bytes:(Size.mib 3) () in
  match H1_heap.alloc h ~kind:Obj_.Data ~size:64 with
  | H1_heap.Allocated o ->
      H1_heap.free_object h o;
      Alcotest.check_raises "double free"
        (Invalid_argument "H1_heap.free_object: double free") (fun () ->
          H1_heap.free_object h o)
  | _ -> Alcotest.fail "expected allocation"

(* ---- H2 card table ---- *)

let test_h2_states () =
  let ct = H2_card_table.create ~capacity_bytes:(Size.mib 1) () in
  let seg = H2_card_table.segment_of ct ~gaddr:5000 in
  Alcotest.(check bool) "initially clean" true
    (H2_card_table.state ct ~seg = H2_card_table.Clean);
  H2_card_table.mark_dirty ct ~gaddr:5000;
  Alcotest.(check bool) "dirty after store" true
    (H2_card_table.state ct ~seg = H2_card_table.Dirty);
  H2_card_table.set_state ct ~seg H2_card_table.Old_gen;
  Alcotest.(check bool) "downgraded to oldGen" true
    (H2_card_table.state ct ~seg = H2_card_table.Old_gen);
  Alcotest.(check int) "non-clean tracked" 1 (H2_card_table.non_clean_count ct)

let test_h2_minor_scan_selects_dirty_and_young () =
  let ct = H2_card_table.create ~capacity_bytes:(Size.mib 1) () in
  H2_card_table.set_state ct ~seg:1 H2_card_table.Dirty;
  H2_card_table.set_state ct ~seg:2 H2_card_table.Young_gen;
  H2_card_table.set_state ct ~seg:3 H2_card_table.Old_gen;
  let minor = ref [] and major = ref [] in
  H2_card_table.iter_minor_scan ct ~lo:0 ~hi:(H2_card_table.num_segments ct)
    (fun seg _ -> minor := seg :: !minor);
  H2_card_table.iter_major_scan ct ~lo:0 ~hi:(H2_card_table.num_segments ct)
    (fun seg _ -> major := seg :: !major);
  Alcotest.(check (list int)) "minor skips oldGen" [ 2; 1 ] !minor;
  Alcotest.(check (list int)) "major includes oldGen" [ 3; 2; 1 ] !major

let test_h2_sticky_boundary_cards () =
  (* Unaligned (vanilla) layout: a dirty boundary card is never cleaned. *)
  let ct =
    H2_card_table.create ~segment_size:512 ~stripe_aligned:false
      ~stripe_size:(Size.kib 4) ~capacity_bytes:(Size.kib 64) ()
  in
  (* Segment 0 is the first card of stripe 0: boundary. *)
  H2_card_table.mark_dirty ct ~gaddr:0;
  H2_card_table.set_state ct ~seg:0 H2_card_table.Clean;
  Alcotest.(check bool) "boundary card stays dirty" true
    (H2_card_table.state ct ~seg:0 = H2_card_table.Dirty);
  (* An interior card can be cleaned. *)
  H2_card_table.mark_dirty ct ~gaddr:(512 * 3);
  H2_card_table.set_state ct ~seg:3 H2_card_table.Clean;
  Alcotest.(check bool) "interior card cleaned" true
    (H2_card_table.state ct ~seg:3 = H2_card_table.Clean)

let test_h2_aligned_boundary_cards_clean () =
  let ct =
    H2_card_table.create ~segment_size:512 ~stripe_aligned:true
      ~stripe_size:(Size.kib 4) ~capacity_bytes:(Size.kib 64) ()
  in
  H2_card_table.mark_dirty ct ~gaddr:0;
  H2_card_table.set_state ct ~seg:0 H2_card_table.Clean;
  Alcotest.(check bool) "TeraHeap alignment removes stickiness" true
    (H2_card_table.state ct ~seg:0 = H2_card_table.Clean)

let test_h2_clear_range_overrides_sticky () =
  let ct =
    H2_card_table.create ~segment_size:512 ~stripe_aligned:false
      ~stripe_size:(Size.kib 4) ~capacity_bytes:(Size.kib 64) ()
  in
  H2_card_table.mark_dirty ct ~gaddr:0;
  H2_card_table.clear_range ct ~lo:0 ~hi:8;
  Alcotest.(check int) "bulk region reclamation clears all" 0
    (H2_card_table.non_clean_count ct)

let test_h2_metadata_bytes () =
  let ct = H2_card_table.create ~segment_size:4096 ~capacity_bytes:(Size.mib 4) () in
  Alcotest.(check int) "one byte per segment" 1024
    (H2_card_table.metadata_bytes ct)

let prop_h2_non_clean_counter_consistent =
  QCheck.Test.make ~name:"h2 card non-clean counter matches states" ~count:100
    QCheck.(list (pair (int_range 0 63) (int_range 0 3)))
    (fun ops ->
      let ct =
        H2_card_table.create ~segment_size:512 ~capacity_bytes:(Size.kib 32) ()
      in
      List.iter
        (fun (seg, st) ->
          let state =
            match st with
            | 0 -> H2_card_table.Clean
            | 1 -> H2_card_table.Dirty
            | 2 -> H2_card_table.Young_gen
            | _ -> H2_card_table.Old_gen
          in
          H2_card_table.set_state ct ~seg state)
        ops;
      let actual = ref 0 in
      H2_card_table.iter_major_scan ct ~lo:0
        ~hi:(H2_card_table.num_segments ct) (fun _ _ -> incr actual);
      !actual = H2_card_table.non_clean_count ct)

(* ---- Sized on first use: lazy tables against eagerly sized ones ---- *)

(* Both tables start with a covered prefix smaller than the table; the
   reference is the same table grown to its full size by dirtying and
   clearing its last card before the run. Every observation — return
   values, exceptions, counters and the transition stream — must match
   while the lazy table grows underneath. *)
let observe f = try f () with e -> "raised " ^ Printexc.to_string e

(* What a fully sized table raises for an index outside it; the shared
   cold path must keep raising exactly that. *)
let raised msg = "raised " ^ Printexc.to_string (Invalid_argument msg)

let outside n i = i < 0 || i >= n

let state_name = function
  | H2_card_table.Clean -> "clean"
  | H2_card_table.Dirty -> "dirty"
  | H2_card_table.Young_gen -> "young"
  | H2_card_table.Old_gen -> "old"

type h2_card_op =
  | Mark of int  (* global address *)
  | Set of int * int  (* segment, state selector *)
  | Clear of int * int
  | Scan of bool * int * int  (* major?, lo, hi *)
  | Segment_of of int
  | State of int

let h2_seg_size = 512

(* 512 segments, so the 64-byte first prefix grows three times. *)
let h2_capacity = Size.kib 256

let h2_card_op_gen =
  let nsegs = h2_capacity / h2_seg_size in
  QCheck.Gen.(
    let seg = int_range (-2) (nsegs + 2) in
    let gaddr = int_range (-h2_seg_size) (h2_capacity + h2_seg_size) in
    frequency
      [
        (4, map (fun a -> Mark a) gaddr);
        (4, map2 (fun s st -> Set (s, st)) seg (int_range 0 3));
        (1, map2 (fun lo n -> Clear (lo, lo + n)) seg (int_range 0 64));
        ( 1,
          map3 (fun major lo n -> Scan (major, lo, lo + n)) bool seg
            (int_range 0 600) );
        (1, map (fun a -> Segment_of a) gaddr);
        (2, map (fun s -> State s) seg);
      ])

let h2_card_op_to_string = function
  | Mark a -> Printf.sprintf "Mark %d" a
  | Set (s, st) -> Printf.sprintf "Set(%d,%d)" s st
  | Clear (lo, hi) -> Printf.sprintf "Clear(%d,%d)" lo hi
  | Scan (major, lo, hi) -> Printf.sprintf "Scan(%b,%d,%d)" major lo hi
  | Segment_of a -> Printf.sprintf "Segment_of %d" a
  | State s -> Printf.sprintf "State %d" s

let run_h2_card_op ct = function
  | Mark gaddr ->
      observe (fun () ->
          H2_card_table.mark_dirty ct ~gaddr;
          "ok")
  | Set (seg, st) ->
      let st =
        [| H2_card_table.Clean; Dirty; Young_gen; Old_gen |].(st)
      in
      observe (fun () ->
          H2_card_table.set_state ct ~seg st;
          "ok")
  | Clear (lo, hi) ->
      observe (fun () ->
          H2_card_table.clear_range ct ~lo ~hi;
          "ok")
  | Scan (major, lo, hi) ->
      let b = Buffer.create 64 in
      (if major then H2_card_table.iter_major_scan
       else H2_card_table.iter_minor_scan)
        ct ~lo ~hi (fun seg st ->
          Printf.bprintf b "%d:%s " seg (state_name st));
      Buffer.contents b
  | Segment_of gaddr ->
      observe (fun () -> string_of_int (H2_card_table.segment_of ct ~gaddr))
  | State seg ->
      observe (fun () -> state_name (H2_card_table.state ct ~seg))

let h2_expected_raise op =
  let nsegs = h2_capacity / h2_seg_size in
  match op with
  | (Mark a | Segment_of a) when outside nsegs (a / h2_seg_size) ->
      Some (raised "H2_card_table.segment_of: address out of range")
  | (Set (s, _) | State s) when outside nsegs s ->
      Some (raised "index out of bounds")
  | Mark _ | Segment_of _ | Set _ | State _ | Clear _ | Scan _ -> None

let h2_card_log ~eager ~aligned ops =
  let ct =
    H2_card_table.create ~segment_size:h2_seg_size ~stripe_aligned:aligned
      ~stripe_size:(Size.kib 4) ~capacity_bytes:h2_capacity ()
  in
  if eager then begin
    let last = H2_card_table.num_segments ct - 1 in
    H2_card_table.mark_dirty ct ~gaddr:(last * h2_seg_size);
    H2_card_table.clear_range ct ~lo:last ~hi:(last + 1)
  end;
  let log = ref [] in
  H2_card_table.set_transition_hook ct
    (Some
       (fun ~seg ~before ~after _ ->
         log :=
           Printf.sprintf "  %d %s->%s" seg (state_name before)
             (state_name after)
           :: !log));
  List.iter
    (fun op ->
      let r = run_h2_card_op ct op in
      (match h2_expected_raise op with
      | Some e when r <> e ->
          QCheck.Test.fail_reportf "%s gave %s, expected %s"
            (h2_card_op_to_string op) r e
      | Some _ | None -> ());
      log :=
        Printf.sprintf "%s = %s non_clean=%d segs=%d meta=%d"
          (h2_card_op_to_string op) r
          (H2_card_table.non_clean_count ct)
          (H2_card_table.num_segments ct)
          (H2_card_table.metadata_bytes ct)
        :: !log)
    ops;
  List.rev !log

let prop_h2_cards_lazy_match_eager =
  QCheck.Test.make ~name:"lazily sized h2 card table matches an eager one"
    ~count:200
    QCheck.(
      pair bool
        (make
           ~print:(fun ops ->
             String.concat "; " (List.map h2_card_op_to_string ops))
           Gen.(list_size (int_range 0 80) h2_card_op_gen)))
    (fun (aligned, ops) ->
      h2_card_log ~eager:false ~aligned ops
      = h2_card_log ~eager:true ~aligned ops)

type h1_card_op =
  | Dirty_at of int  (* address *)
  | Clear_card of int
  | Is_dirty of int
  | Card_of of int
  | Clear_all
  | Note_start of int  (* address step past the last noted object *)
  | Dirty_ranges

let h1_card_size = 512

let h1_capacity = Size.kib 256

let h1_card_op_gen =
  let ncards = h1_capacity / h1_card_size in
  QCheck.Gen.(
    let card = int_range (-2) (ncards + 2) in
    let addr = int_range (-h1_card_size) (h1_capacity + h1_card_size) in
    frequency
      [
        (4, map (fun a -> Dirty_at a) addr);
        (2, map (fun c -> Clear_card c) card);
        (2, map (fun c -> Is_dirty c) card);
        (1, map (fun a -> Card_of a) addr);
        (1, return Clear_all);
        (2, map (fun d -> Note_start d) (int_range 0 8000));
        (1, return Dirty_ranges);
      ])

let h1_card_op_to_string = function
  | Dirty_at a -> Printf.sprintf "Dirty_at %d" a
  | Clear_card c -> Printf.sprintf "Clear_card %d" c
  | Is_dirty c -> Printf.sprintf "Is_dirty %d" c
  | Card_of a -> Printf.sprintf "Card_of %d" a
  | Clear_all -> "Clear_all"
  | Note_start d -> Printf.sprintf "Note_start +%d" d
  | Dirty_ranges -> "Dirty_ranges"

let h1_expected_raise op =
  let ncards = h1_capacity / h1_card_size in
  match op with
  | (Dirty_at a | Card_of a) when outside ncards (a / h1_card_size) ->
      Some (raised "Card_table.card_of_addr: address out of range")
  | (Clear_card c | Is_dirty c) when outside ncards c ->
      Some (raised "index out of bounds")
  | Dirty_at _ | Card_of _ | Clear_card _ | Is_dirty _ | Clear_all
  | Note_start _ | Dirty_ranges ->
      None

let h1_card_log ~eager ops =
  let ct =
    Card_table.create ~card_size:h1_card_size ~capacity_bytes:h1_capacity ()
  in
  if eager then begin
    let last = Card_table.num_cards ct - 1 in
    Card_table.mark_dirty ct ~addr:(last * h1_card_size);
    Card_table.clear_card ct ~card:last
  end;
  let next_start = ref 0 in
  List.map
    (fun op ->
      let r =
        match op with
        | Dirty_at addr ->
            observe (fun () ->
                Card_table.mark_dirty ct ~addr;
                "ok")
        | Clear_card card ->
            observe (fun () ->
                Card_table.clear_card ct ~card;
                "ok")
        | Is_dirty card ->
            observe (fun () -> string_of_bool (Card_table.is_dirty ct ~card))
        | Card_of addr ->
            observe (fun () -> string_of_int (Card_table.card_of_addr ct addr))
        | Clear_all ->
            Card_table.clear_all ct;
            "ok"
        | Note_start d ->
            next_start := !next_start + d;
            Card_table.note_object_start ct ~addr:!next_start;
            "ok"
        | Dirty_ranges ->
            let b = Buffer.create 64 in
            Card_table.iter_dirty_ranges ct (fun card lo hi ->
                Printf.bprintf b "%d:[%d,%d) " card lo hi);
            Buffer.contents b
      in
      (match h1_expected_raise op with
      | Some e when r <> e ->
          QCheck.Test.fail_reportf "%s gave %s, expected %s"
            (h1_card_op_to_string op) r e
      | Some _ | None -> ());
      Printf.sprintf "%s = %s dirty=%d cards=%d" (h1_card_op_to_string op) r
        (Card_table.dirty_count ct) (Card_table.num_cards ct))
    ops

let prop_h1_cards_lazy_match_eager =
  QCheck.Test.make ~name:"lazily sized h1 card table matches an eager one"
    ~count:200
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; " (List.map h1_card_op_to_string ops))
       QCheck.Gen.(list_size (int_range 0 80) h1_card_op_gen))
    (fun ops -> h1_card_log ~eager:false ops = h1_card_log ~eager:true ops)


let suite =
  [
    Alcotest.test_case "h1 card mark/clear" `Quick test_card_mark_and_clear;
    Alcotest.test_case "h1 card granularity" `Quick test_card_512b_granularity;
    Alcotest.test_case "h1 card range check" `Quick test_card_out_of_range;
    Alcotest.test_case "h1 object-start index" `Quick
      test_card_object_start_index;
    Alcotest.test_case "h1 sizing follows PS defaults" `Quick
      test_h1_sizing_defaults;
    Alcotest.test_case "h1 alloc accounting" `Quick test_h1_alloc_accounting;
    Alcotest.test_case "h1 eden fills" `Quick test_h1_eden_full;
    Alcotest.test_case "h1 large objects allocate old" `Quick
      test_h1_large_object_goes_old;
    Alcotest.test_case "h1 old-gen bump allocation" `Quick
      test_h1_old_bump_allocation;
    Alcotest.test_case "h1 old-gen capacity enforced" `Quick test_h1_old_full;
    Alcotest.test_case "h1 double free detected" `Quick
      test_h1_double_free_detected;
    Alcotest.test_case "h2 card four states" `Quick test_h2_states;
    Alcotest.test_case "h2 minor scan skips oldGen segments" `Quick
      test_h2_minor_scan_selects_dirty_and_young;
    Alcotest.test_case "h2 unaligned boundary cards sticky" `Quick
      test_h2_sticky_boundary_cards;
    Alcotest.test_case "h2 aligned boundary cards cleanable" `Quick
      test_h2_aligned_boundary_cards_clean;
    Alcotest.test_case "h2 clear_range overrides stickiness" `Quick
      test_h2_clear_range_overrides_sticky;
    Alcotest.test_case "h2 card metadata size" `Quick test_h2_metadata_bytes;
    QCheck_alcotest.to_alcotest prop_h2_non_clean_counter_consistent;
    QCheck_alcotest.to_alcotest prop_h2_cards_lazy_match_eager;
    QCheck_alcotest.to_alcotest prop_h1_cards_lazy_match_eager;
  ]

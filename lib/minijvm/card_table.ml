type t = {
  card_size : int;
  num_cards : int;
  (* Dirty bytes for a prefix of the [num_cards] cards, grown by
     doubling when a card past it is dirtied: a card beyond the prefix
     is clean, so a fresh table touches no memory it has not needed. *)
  mutable cards : Bytes.t;
  mutable dirty : int;
  (* Object-start index (HotSpot's block-offset table, at card grain):
     [starts.(c)] is the position in the address-sorted [old_objs] of the
     first object starting on card [c] or later, valid for
     [c < indexed_cards]; cards past that own no object yet. Appends
     extend the valid prefix, a reset just empties it, and the array
     grows on demand, so a fresh or rebuilt table touches no entry it
     does not fill. *)
  mutable starts : int array;
  mutable indexed_cards : int;
  mutable indexed : int;
}

let create ?(card_size = 512) ~capacity_bytes () =
  if card_size <= 0 then invalid_arg "Card_table.create: card_size";
  let num_cards = max 1 ((capacity_bytes + card_size - 1) / card_size) in
  {
    card_size;
    num_cards;
    cards = Bytes.empty;
    dirty = 0;
    starts = [||];
    indexed_cards = 0;
    indexed = 0;
  }

let card_size t = t.card_size

let num_cards t = t.num_cards

let address_error = "Card_table.card_of_addr: address out of range"

let card_of_addr t addr =
  let c = addr / t.card_size in
  if c < 0 || c >= t.num_cards then invalid_arg address_error;
  c

(* Cold path of [mark_dirty]: widen the covered prefix to card [c], or
   raise what a fully sized table raises for a card outside it. *)
let cover t c =
  if c < 0 || c >= t.num_cards then invalid_arg address_error;
  let len = Bytes.length t.cards in
  let n = min t.num_cards (max (c + 1) (max 64 (2 * len))) in
  let cards = Bytes.make n '\000' in
  Bytes.blit t.cards 0 cards 0 len;
  t.cards <- cards

let mark_dirty t ~addr =
  let c = addr / t.card_size in
  if c < 0 || c >= Bytes.length t.cards then cover t c;
  if Bytes.unsafe_get t.cards c = '\000' then begin
    Bytes.unsafe_set t.cards c '\001';
    t.dirty <- t.dirty + 1
  end

(* Reads past the covered prefix are clean; past the table they raise
   the bounds error a fully sized table would. *)
let is_dirty t ~card =
  if card < Bytes.length t.cards then Bytes.get t.cards card <> '\000'
  else begin
    if card < 0 || card >= t.num_cards then invalid_arg "index out of bounds";
    false
  end

let dirty_count t = t.dirty

let clear_all t =
  Bytes.fill t.cards 0 (Bytes.length t.cards) '\000';
  t.dirty <- 0

let clear_card t ~card =
  if is_dirty t ~card then begin
    Bytes.set t.cards card '\000';
    t.dirty <- t.dirty - 1
  end

(* ------------------------------------------------------------------ *)
(* Object-start index                                                  *)

let reset_index t =
  t.indexed_cards <- 0;
  t.indexed <- 0

let note_object_start t ~addr =
  (* Cards are not bounded by [num_cards]: during major-GC precompaction a
     survivor's new address may exceed the old generation (the OOM is
     only raised in the epilogue), and the index must still cover it so
     every later position stays exact. *)
  if addr < 0 then invalid_arg "Card_table.note_object_start: negative address";
  let c = addr / t.card_size in
  if c < t.indexed_cards - 1 then
    invalid_arg "Card_table.note_object_start: address below the last object";
  if c >= t.indexed_cards then begin
    if c >= Array.length t.starts then begin
      let starts = Array.make (max (c + 1) (2 * Array.length t.starts)) 0 in
      Array.blit t.starts 0 starts 0 t.indexed_cards;
      t.starts <- starts
    end;
    Array.fill t.starts t.indexed_cards (c + 1 - t.indexed_cards) t.indexed;
    t.indexed_cards <- c + 1
  end;
  t.indexed <- t.indexed + 1

let indexed_objects t = t.indexed

let start_index t ~card =
  if card < 0 then 0
  else if card < t.indexed_cards then Array.unsafe_get t.starts card
  else t.indexed

let iter_dirty_ranges t f =
  (* Ascending card order; stops once every dirty card has been seen or
     the index runs out of cards that own objects. *)
  let remaining = ref t.dirty in
  let n = min (Bytes.length t.cards) t.indexed_cards in
  let c = ref 0 in
  while !remaining > 0 && !c < n do
    let card = !c in
    if Bytes.unsafe_get t.cards card <> '\000' then begin
      decr remaining;
      let lo = Array.unsafe_get t.starts card in
      let hi =
        if card + 1 < t.indexed_cards then Array.unsafe_get t.starts (card + 1)
        else t.indexed
      in
      if hi > lo then f card lo hi
    end;
    incr c
  done

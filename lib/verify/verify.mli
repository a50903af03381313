(** Safepoint heap-state sanitizer for H1/H2 — the simulator's analogue
    of HotSpot's [-XX:+VerifyBeforeGC/AfterGC].

    Attached to a runtime, the sanitizer re-derives the cross-structure
    invariants the TeraHeap design relies on (§3.3–§3.4) at every GC
    safepoint and reports divergences as structured {!violation} records
    instead of aborting:

    - {b rset-completeness} — every old-generation object with a young
      reference sits on a dirty H1 card, the old generation is strictly
      address-sorted, and every card's object-start range holds exactly
      the objects starting on that card (so the [Card_index] walk and the
      [Linear_scan] oracle visit the same objects);
    - {b h2-card-legality} — every H2 object with a backward reference is
      covered by a card segment whose state gets it scanned;
    - {b h2-card-transition} — only legal 4-state card transitions occur
      (recorded online through {!Th_core.H2_card_table}'s hook);
    - {b dependency-soundness} — every cross-region H2 reference is in
      the source region's dependency list (or Union-Find group), and no
      reference or dependency targets a reclaimed region;
    - {b region-accounting} — space counters match per-object sums (eden
      adds its record-free dead-young bytes), H2
      region allocation pointers replay, the {!Th_psgc.Heap_census}
      agrees, and reclaimed regions are really empty;
    - {b reachability} ([Paranoid] only) — a from-scratch reachability
      census finds no freed or reclaimed-region object;
    - {b conservation} — the clock, device and page-cache counters only
      ever grow, and the page cache respects its capacity.

    The sanitizer is purely observational: it never advances the
    simulated clock nor touches the device or page cache, so a verified
    run's output is byte-identical to an unverified one. *)

type level =
  | Off
  | Safepoint  (** all structural rules at every GC safepoint *)
  | Paranoid  (** [Safepoint] plus the full reachability census *)

val level_of_string : string -> level option

val level_to_string : level -> string

type rule =
  | Rset_completeness
  | H2_card_legality
  | H2_card_transition
  | Dependency_soundness
  | Region_accounting
  | Reachability
  | Conservation

val rule_id : rule -> string
(** Stable kebab-case identifier, e.g. ["rset-completeness"]. *)

type phase =
  | Before_minor
  | After_minor
  | Before_major
  | After_major
  | Online  (** recorded by the card-table transition hook mid-run *)
  | Manual  (** a {!check_now} call *)

val phase_name : phase -> string

type violation = {
  rule : rule;
  phase : phase;
  detail : string;
  object_id : int option;
  region : int option;
  card : int option;
}

type t

val attach : Th_psgc.Runtime.t -> level -> t
(** Install the sanitizer on a runtime: hooks the GC safepoints and, when
    an H2 is present, the H2 card table's transition recorder. With
    [Off], installs nothing and never checks. The same verifier instance
    accumulates violations for the whole run. *)

val check_now : t -> unit
(** Run all checks immediately (phase [Manual]); useful at end of run. *)

val violations : t -> violation list

val violation_count : t -> int

val pp_violation : Format.formatter -> violation -> unit

val report : t -> string
(** Multi-line human-readable summary of all recorded violations. *)

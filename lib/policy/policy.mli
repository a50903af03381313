(** First-class H2 placement policies.

    A policy answers the two questions {!Th_psgc.Ps_gc} used to
    hard-code at each major GC: {e which tagged roots move this cycle}
    and {e in what order/grouping they stream into H2 regions}. The
    collector keeps the guards (mark/label validity, the pressure
    budget, promotion-failure retention, the resilience move gate), so
    every policy inherits the same safety envelope.

    Policies learn from the mutator through {!observe}. Observations are
    host-side bookkeeping only: they never advance the simulated clock,
    draw randomness, or emit trace events, so installing a policy cannot
    perturb the simulation it watches. Policies measure time in
    {e mutator operations} (observed accesses) — a logical clock
    identical across runs of the same workload regardless of GC cadence,
    which is what makes the two-pass {!oracle}'s future knowledge
    transferable between its passes.

    A policy value owns unsynchronised mutable state: create one per
    runtime, inside the benchmark cell that uses it. The analyzer's
    escape-capture rule watches {!make} call sites for captured mutable
    locals. *)

module Obj_ = Th_objmodel.Heap_object
module H2 = Th_core.H2

type move_class =
  | Advised  (** moves unconditionally (group is immutable per h2_move) *)
  | Budgeted
      (** pressure move: the collector re-checks the low/high-threshold
          budget before each closure *)

type pick = { root : Obj_.t; cls : move_class; group : int }
(** [group] keys the H2 allocator bucket the root's closure streams
    into; policies that co-locate labels return a shared group key
    (defaults to the root's label). *)

type pressure = No_pressure | Move_all_tagged | Move_until_low
(** The collector's pending move policy, decided at the end of the
    previous major GC; {!Th_psgc.Rt.move_pressure} re-exports it. *)

type ctx = {
  epoch : int;
  pressure : pressure;
  live_bytes : int;
  old_capacity : int;
  h2 : H2.t;
}

type obs =
  | Tagged of { label : int; site : int; bytes : int }
  | Advice of { label : int }
  | Access of {
      label : int;
      site : int;
      bytes : int;
      write : bool;
      in_h2 : bool;
    }
  | Moved of { label : int; site : int; bytes : int }
  | Death of { label : int; site : int; bytes : int }
  | Major_start of { epoch : int }

type t = {
  name : string;
  select : ctx -> roots:Obj_.t list -> pick list;
  observe : obs -> unit;
  trace_decisions : bool;
      (** emit a [policy/select] trace instant per major GC; off for
          {!threshold} so pre-policy trace goldens stay byte-identical *)
}

val make :
  name:string ->
  ?trace_decisions:bool ->
  select:(ctx -> roots:Obj_.t list -> pick list) ->
  observe:(obs -> unit) ->
  unit ->
  t
(** Assemble a custom policy. Callbacks run inside the runtime that
    installs the policy, so state they capture belongs to that run:
    build the policy inside the cell that owns the run. *)

val threshold : t
(** The paper's high/low-threshold behavior, bit-for-bit identical to
    the former inline move passes: advised roots in tag order, then —
    under pressure — unadvised roots in tag order up to the budget.
    Stateless ([observe] ignores), so the single value is safe to share. *)

val lifetime : Profile.t -> t
(** Deca-style allocation-site lifetime placement: sites the profiling
    run saw long-lived and rarely touched after tagging move eagerly
    (advice or not); under pressure the remaining roots move
    coldest-first. *)

val profiler : unit -> t * Profile.t
(** The profiling pre-run for {!lifetime}: selects exactly like
    {!threshold} while filling the returned profile. *)

val gang_locality : unit -> t
(** Gang-GC-style affinity placement: labels co-accessed repeatedly are
    fused into gangs (union-find, smallest label as the stable
    representative) and stream into the same H2 region via a shared
    placement group. *)

val two_q : unit -> t
(** 2Q-style frequency/recency scoring fed by the page-cache model:
    recently/frequently touched labels stay in H1 even when advised —
    until pressure forces them out, hottest last. The recency window
    widens when the page cache is thrashing. *)

module Future : sig
  type t

  val create : unit -> t

  val record : t -> label:int -> op:int -> bytes:int -> unit

  val future_bytes : t -> label:int -> op:int -> int
  (** Bytes of labelled accesses recorded strictly after logical time
      [op] — the read-back traffic a move at [op] would expose. *)
end

val recording : unit -> t * Future.t
(** First oracle pass: behaves exactly like {!threshold} while
    recording every labelled access against the logical op clock. *)

val oracle : Future.t -> t
(** Second oracle pass: with the first pass's future knowledge, move
    exactly the labels the mutator never touches again (zero future
    read-back by construction) plus — only when pressure forces more —
    the least-consulted of the rest. The upper bound a placement policy
    can reach. *)

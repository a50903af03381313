(** Cross-library call graph with mutable-state effect summaries.

    Keys carry the owning dune library (from {!Source.t.library}), so
    same-named modules in different libraries — the two [Report]s, the
    two [Engine]s — no longer collide, and effect summaries propagate
    to fixpoint across library boundaries: a [bench/] helper mutating a
    [lib/metrics] global through any number of hops is visible at the
    scheduler call site that captures the helper. *)

type key = { lib : string; modname : string; name : string }

val compare_key : key -> key -> int

val key_to_string : key -> string
(** ["th_metrics/Bench_log.state"]; the anonymous library prints ["?"]. *)

type t

val build : Source.t list -> t
(** Whole-project build: module landscape, mutable globals, per-def
    direct effects and call edges, then the transitive fixpoint. *)

val resolve :
  t -> cur_lib:string -> cur_mod:string -> Longident.t -> key list
(** Candidate definitions a reference may denote, honouring library
    wrappers ([Th_metrics.Bench_log.x]), same-library sibling modules,
    and unique unqualified names. Ambiguity resolves to []. *)

val global_info : t -> key -> (Location.t * bool) option
(** [(definition site, blessed)] for a mutable global. [blessed] means
    the definition carries [[@@th.allow "pmap-mutable-global"]]. *)

val global_site : t -> key -> string
(** ["file:line"] of a global's definition, or ["?"]. *)

val def_effects : t -> key -> key list
(** Mutable globals transitively reachable from a definition. *)

val is_mutable_init :
  t -> lib:string -> modname:string -> Parsetree.expression -> bool
(** Does the expression allocate mutable state ([ref], [Hashtbl.create],
    array literals, record literals with a known-[mutable] field, ...)?
    Classification is syntactic; plain record types without [mutable]
    fields and opaque constructor calls are not covered. *)

val is_domain_safe_init : Parsetree.expression -> bool
(** [Atomic.make]/[Mutex.create]/[Condition.create]/[Semaphore.make]:
    mutable but safe to share across domains by construction. *)

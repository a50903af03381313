(** Interprocedural raises-effect analysis.

    Infers, for every definition in the analyzed sources, the set of
    typed exception constructors that may escape a call to it —
    syntactic [raise (C ...)] forms introduce constructors, [try] and
    [match ... with exception] handlers subtract what they catch
    (re-raising the bound exception puts it back), and identifier
    occurrences contribute the callee's summary at the occurrence
    site, so a handler around the call absorbs it. Summaries
    propagate over {!Callgraph} to fixpoint across library and
    nested-module boundaries.

    [[@th.raises "Exn ..."]] on a binding fixes the summary callers
    see; inference never widens a declared summary. Three rules
    consume the results: [fault-barrier] (undeclared escapes of fault
    exceptions; [Out_of_h2_space] may never leave [Ps_gc]),
    [cell-boundary] (thunks at scheduler sinks may only leak
    [Out_of_memory]/[Invalid_heap_state]) and [pure-render]
    ([Plan.seal ~render] callbacks must be exception- and
    effect-free). *)

type t

val build : Callgraph.t -> Source.t list -> t
(** Infer summaries for every definition and run the fixpoint.
    Deterministic: defs are visited in canonical key order. *)

val summary : t -> Callgraph.key -> string list
(** The published summary of a definition — the [@th.raises]
    declaration when one exists, the inferred escape set otherwise.
    Sorted; [[]] for unknown keys. *)

val of_expr :
  t -> lib:string -> modname:string -> Parsetree.expression -> string list
(** Escape set of a standalone expression evaluated in the given
    module's scope, resolving free identifiers through the call
    graph. Sorted. *)

val check_file : t -> Source.t -> Finding.raw list
(** The fault-barrier / cell-boundary / pure-render findings for one
    file, in source order; {!Engine} applies the waivers. *)

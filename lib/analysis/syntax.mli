(** Shared AST helpers for the analysis passes.

    Everything here is purely syntactic: longident flattening, waiver
    attribute parsing ([[@th.allow "..."]]), pattern
    variable/constructor collection, and the one scope-aware
    walk with its binding table. *)

module SS : Set.S with type elt = string

val flatten_lid : Longident.t -> string list
(** [Longident.flatten] that maps functor applications to []. *)

val last2 : string list -> (string * string) option
(** Last two components of a path, e.g. [Stdlib.Hashtbl.iter] and
    [Hashtbl.iter] both give [("Hashtbl", "iter")]. *)

val worker_sinks : (string * string) list
(** The callees whose closure arguments run on a worker domain, as
    {!last2} pairs. The domain-safety rules ([pmap-mutable-global],
    [escape-capture]) read this one table, and their [--explain] texts
    print it. *)

val worker_sink : Parsetree.expression -> string option
(** [Some path], the callee as written with its full module path,
    when the expression is an identifier whose {!last2} is in
    {!worker_sinks}. *)

val escape_bless_token : string
(** ["domain_shared"] — the waiver token that blesses an
    [escape-capture] finding. It only counts when the waiver string
    carries a justification beyond the bare token. *)

val attr_allows : Parsetree.attributes -> string list
(** Rule names (and bless tokens) allowed by [[@th.allow "..."]]
    attributes. A bare ["domain_shared"] payload with no justification
    words yields nothing. *)

val pat_vars : Parsetree.pattern -> string list

val pat_constructors : Parsetree.pattern -> string list

val is_catch_all : Parsetree.pattern -> bool

type 'a scope
(** The binding table: per name, a stack of payloads for the local
    bindings in scope, innermost first. *)

val scope : unit -> 'a scope

val bound : 'a scope -> string -> bool
(** Is the name bound locally, i.e. does it shadow top-level names? *)

val innermost : 'a scope -> string -> 'a option

val push : 'a scope -> string -> 'a -> unit

val pop : 'a scope -> string -> unit

val with_bindings : 'a scope -> (string * 'a) list -> (unit -> 'b) -> 'b
(** Run the thunk with the bindings pushed, then pop them. *)

val scoped_iterator :
  'a scope ->
  classify:(Parsetree.expression -> 'a) ->
  other:'a ->
  pre:(Parsetree.expression -> unit) ->
  Ast_iterator.iterator
(** The one scope-aware walk. [pre] sees every expression before its
    children, while the scope holds the local bindings in force there.
    [let]/[fun]/[function]/[match]/[try]/[for] push their pattern
    variables: a [let x = rhs] binds [x] to [classify rhs], every other
    binder to [other]. Structure-level bindings are not pushed. *)

val iter_unshadowed_idents :
  f:(Longident.t -> Location.t -> unit) -> Parsetree.expression -> unit
(** Call [f lid loc] for every identifier reference in the expression
    whose unqualified name is not bound within it. *)

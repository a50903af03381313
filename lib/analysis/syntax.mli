(** Shared AST helpers for the analysis pass.

    Everything here is purely syntactic: longident flattening, waiver
    token parsing ([[@th.allow "..."]] and comment waivers), pattern
    variable/constructor collection, and the one scope-aware walk with
    its binding table. *)

module SS : Set.S with type elt = string

val flatten_lid : Longident.t -> string list
(** [Longident.flatten] that maps functor applications to []. *)

val last2 : string list -> (string * string) option
(** Last two components of a path, e.g. [Stdlib.Hashtbl.iter] and
    [Hashtbl.iter] both give [("Hashtbl", "iter")]. *)

val split_words : string -> string list
(** The waiver-token splitter: words separated by spaces, tabs,
    newlines or commas, empty words dropped. Attribute and comment
    waivers both read their tokens with it. *)

val attr_allows : Parsetree.attributes -> string list
(** Rule names allowed by [[@th.allow "..."]] attributes. *)

val pat_vars : Parsetree.pattern -> string list

val pat_constructors : Parsetree.pattern -> string list

val is_catch_all : Parsetree.pattern -> bool

type scope
(** The binding table: per name, the number of local bindings of it in
    scope. *)

val scope : unit -> scope

val bound : scope -> string -> bool
(** Is the name bound locally, i.e. does it shadow top-level names? *)

val scoped_iterator :
  scope -> pre:(Parsetree.expression -> unit) -> Ast_iterator.iterator
(** The one scope-aware walk. [pre] sees every expression before its
    children, while the scope holds the local bindings in force there:
    [let]/[fun]/[function]/[match]/[try]/[for] push their pattern
    variables. Structure-level bindings are not pushed. *)

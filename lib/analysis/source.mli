(** Parsing front-end: one compilation unit, parsed with the compiler's
    own lexer and parser ([compiler-libs.common]), plus the comment
    stream the parser normally discards (needed for comment waivers). *)

type ast =
  | Structure of Parsetree.structure  (** a [.ml] implementation *)
  | Signature of Parsetree.signature  (** a [.mli] interface *)

type t = {
  file : string;  (** path as given; used verbatim in findings *)
  modname : string;  (** capitalized basename, e.g. ["Ps_gc"] *)
  ast : ast;
  comments : (string * Location.t) list;
      (** every comment with its location, in source order *)
}

val parse_string : file:string -> string -> (t, string) result
(** Parse [source] as the contents of [file] ([.mli] suffix selects the
    signature grammar). [Error msg] carries a located syntax-error
    description. *)

val parse_file : string -> (t, string) result

val line_waivers : t -> (int * string list) list
(** Comment waivers: for each [(* th-lint: allow r1 r2 ... *)] comment,
    the line it ends on and the rule names it allows. *)

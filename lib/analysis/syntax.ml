(* Shared AST helpers for the analysis pass: longident flattening,
   waiver-token parsing, pattern utilities, and the one scope-aware
   walk. *)

open Parsetree
module SS = Set.Make (String)

let flatten_lid lid =
  (* [Longident.flatten] raises on functor applications; those can never
     match a rule pattern, so map them to the empty path. *)
  match Longident.flatten lid with l -> l | exception _ -> []

(* Last two components of a path: [Stdlib.Hashtbl.iter] and
   [Hashtbl.iter] both resolve to [("Hashtbl", "iter")], which is how
   rules name stdlib and intra-repo modules regardless of library
   wrapping. *)
let last2 path =
  match List.rev path with n :: m :: _ -> Some (m, n) | _ -> None

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\n')
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char ',')
  |> List.filter (fun w -> w <> "")

let string_payload (payload : payload) =
  match payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let attr_allows (attrs : attributes) =
  List.concat_map
    (fun a ->
      if String.equal a.attr_name.txt "th.allow" then
        match string_payload a.attr_payload with
        | Some s -> split_words s
        | None -> []
      else [])
    attrs

let rec pat_vars p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: pat_vars p
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pat_vars ps
  | Ppat_construct (_, Some (_, p))
  | Ppat_variant (_, Some p)
  | Ppat_constraint (p, _)
  | Ppat_lazy p
  | Ppat_exception p
  | Ppat_open (_, p) ->
      pat_vars p
  | Ppat_record (fields, _) -> List.concat_map (fun (_, p) -> pat_vars p) fields
  | Ppat_or (a, b) -> pat_vars a @ pat_vars b
  | Ppat_any | Ppat_constant _ | Ppat_interval _ | Ppat_construct (_, None)
  | Ppat_variant (_, None)
  | Ppat_type _ | Ppat_unpack _ | Ppat_extension _ ->
      []

let rec pat_constructors p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, arg) ->
      let here =
        match List.rev (flatten_lid txt) with n :: _ -> [ n ] | [] -> []
      in
      here @ (match arg with Some (_, p) -> pat_constructors p | None -> [])
  | Ppat_alias (p, _)
  | Ppat_constraint (p, _)
  | Ppat_lazy p
  | Ppat_exception p
  | Ppat_open (_, p)
  | Ppat_variant (_, Some p) ->
      pat_constructors p
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pat_constructors ps
  | Ppat_record (fields, _) ->
      List.concat_map (fun (_, p) -> pat_constructors p) fields
  | Ppat_or (a, b) -> pat_constructors a @ pat_constructors b
  | Ppat_any | Ppat_var _ | Ppat_constant _ | Ppat_interval _
  | Ppat_variant (_, None)
  | Ppat_type _ | Ppat_unpack _ | Ppat_extension _ ->
      []

let rec is_catch_all p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> is_catch_all p
  | Ppat_or (a, b) -> is_catch_all a || is_catch_all b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)

(* The binding table: per name, how many local bindings of it are in
   scope. A name is shadowed while its count is positive. *)
type scope = (string, int) Hashtbl.t

let scope () : scope = Hashtbl.create 16

let depth sc n = Option.value ~default:0 (Hashtbl.find_opt sc n)

let bound sc n = depth sc n > 0

let with_bindings sc names k =
  List.iter (fun n -> Hashtbl.replace sc n (depth sc n + 1)) names;
  let r = k () in
  List.iter (fun n -> Hashtbl.replace sc n (depth sc n - 1)) names;
  r

(* The one scope-aware walk. [pre] sees every expression before its
   children, with [sc] holding the local bindings in scope there: the
   pattern variables of [let], [fun], [function]/[match]/[try] cases and
   [for]. *)
let scoped_iterator sc ~pre =
  let open Ast_iterator in
  let expr it e =
    pre e;
    let sub e = it.expr it e in
    let case c =
      with_bindings sc (pat_vars c.pc_lhs) (fun () ->
          Option.iter sub c.pc_guard;
          sub c.pc_rhs)
    in
    match e.pexp_desc with
    | Pexp_let (rf, vbs, body) -> (
        let binds = List.concat_map (fun vb -> pat_vars vb.pvb_pat) vbs in
        let rhs () = List.iter (fun vb -> sub vb.pvb_expr) vbs in
        match rf with
        | Recursive ->
            with_bindings sc binds (fun () ->
                rhs ();
                sub body)
        | Nonrecursive ->
            rhs ();
            with_bindings sc binds (fun () -> sub body))
    | Pexp_fun (_, dflt, pat, body) ->
        Option.iter sub dflt;
        with_bindings sc (pat_vars pat) (fun () -> sub body)
    | Pexp_function cases -> List.iter case cases
    | Pexp_match (s, cases) | Pexp_try (s, cases) ->
        sub s;
        List.iter case cases
    | Pexp_for (pat, a, b, _, body) ->
        sub a;
        sub b;
        with_bindings sc (pat_vars pat) (fun () -> sub body)
    | _ -> default_iterator.expr it e
  in
  { default_iterator with expr }

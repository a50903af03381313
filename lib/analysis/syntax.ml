(* Shared AST helpers for the analysis passes: longident flattening,
   waiver-attribute parsing, pattern utilities, and the one scope-aware
   walk. Every pass (Engine, Atomics, Raises, Callgraph) speaks this
   dialect. *)

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

(* The one table of callees whose closure arguments run on a worker
   domain. Placement-policy callbacks count: they run on whichever
   worker domain owns the runtime that installs the policy, so a
   capture at construction time is a cross-domain escape. *)
let worker_sinks =
  [
    ("Scheduler", "run_cells");
    ("Plan", "cell");
    ("Plan", "cell_list");
    ("Plan", "costed_list");
    ("Plan", "grouped");
    ("Plan", "grouped_costed");
    ("Cell", "make");
    ("Policy", "make");
    ("Domain", "spawn");
  ]

let worker_sink (fn : expression) =
  match fn.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      let path = flatten_lid txt in
      match last2 path with
      | Some (m, f)
        when List.exists
               (fun (m', f') -> String.equal m m' && String.equal f f')
               worker_sinks ->
          Some (String.concat "." path)
      | _ -> None)
  | _ -> None

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

(* The [domain_shared] token blesses an escape-capture site, but only
   when the waiver string carries a justification beyond the bare
   token — an unexplained blessing is no blessing at all. *)
let escape_bless_token = "domain_shared"

let attr_allows (attrs : attributes) =
  List.concat_map
    (fun a ->
      if String.equal a.attr_name.txt "th.allow" then
        match string_payload a.attr_payload with
        | Some s -> (
            match split_words s with
            | [ tok ] when String.equal tok escape_bless_token ->
                (* Bare domain_shared with no justification: reject. *)
                []
            | words -> words)
        | None -> []
      else [])
    attrs

(* [@th.raises "Exn ..."] — the declared exception contract of a
   definition: the typed exception constructors (unqualified names)
   the definition is allowed to let escape. A token may carry a guard
   argument, ["Io_error(checked)"]: the exception only escapes
   applications that pass the labelled argument [~checked] with
   something other than a literal [false] — the conditional-contract
   idiom of the checked-I/O device API. [Some []] — written as
   [[@@th.raises ""]] or [[@@th.raises "none"]] — declares that
   nothing escapes. [None] means the binding carries no declaration
   and the inferred summary stands. *)
let attr_raises (attrs : attributes) =
  let parse_token w =
    match String.index_opt w '(' with
    | Some i when String.length w > i + 1 && w.[String.length w - 1] = ')' ->
        let ctor = String.sub w 0 i in
        let guard = String.sub w (i + 1) (String.length w - i - 2) in
        if ctor = "" || guard = "" then None else Some (ctor, Some guard)
    | _ -> if String.equal w "none" then None else Some (w, None)
  in
  List.fold_left
    (fun acc a ->
      if String.equal a.attr_name.txt "th.raises" then
        match string_payload a.attr_payload with
        | Some s ->
            let ctors = List.filter_map parse_token (split_words s) in
            Some (Option.value ~default:[] acc @ ctors)
        | None -> acc
      else acc)
    None attrs

(* [@th.atomic "role"] — the role annotation required on every Atomic.t
   declaration. Returns the role string when present and non-empty. *)
let attr_atomic_role (attrs : attributes) =
  List.find_map
    (fun a ->
      if String.equal a.attr_name.txt "th.atomic" then
        match string_payload a.attr_payload with
        | Some s when String.trim s <> "" -> Some (String.trim s)
        | _ -> None
      else None)
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

(* The binding table: per name, the payloads of the local bindings in
   scope, innermost first. A name is shadowed while its stack is
   non-empty. *)
type 'a scope = (string, 'a list) Hashtbl.t

let scope () : 'a scope = Hashtbl.create 16

let stack sc n = Option.value ~default:[] (Hashtbl.find_opt sc n)

let bound sc n = stack sc n <> []

let innermost sc n = match stack sc n with v :: _ -> Some v | [] -> None

let push sc n v = Hashtbl.replace sc n (v :: stack sc n)

let pop sc n =
  match stack sc n with _ :: rest -> Hashtbl.replace sc n rest | [] -> ()

let with_bindings sc binds k =
  List.iter (fun (n, v) -> push sc n v) binds;
  let r = k () in
  List.iter (fun (n, _) -> pop sc n) binds;
  r

(* The one scope-aware walk. [pre] sees every expression before its
   children, with [sc] holding the local bindings in scope there. A
   [let x = rhs] binds [x] to [classify rhs]; every other binder
   (destructuring lets, [fun], [function]/[match]/[try] cases, [for])
   binds its pattern variables to [other]. *)
let scoped_iterator sc ~classify ~other ~pre =
  let open Ast_iterator in
  let vars p = List.map (fun n -> (n, other)) (pat_vars p) in
  let bind vb =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> [ (txt, classify vb.pvb_expr) ]
    | _ -> vars vb.pvb_pat
  in
  let expr it e =
    pre e;
    let sub e = it.expr it e in
    let case c =
      with_bindings sc (vars c.pc_lhs) (fun () ->
          Option.iter sub c.pc_guard;
          sub c.pc_rhs)
    in
    match e.pexp_desc with
    | Pexp_let (rf, vbs, body) -> (
        let binds = List.concat_map bind vbs in
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
        with_bindings sc (vars pat) (fun () -> sub body)
    | Pexp_function cases -> List.iter case cases
    | Pexp_match (s, cases) | Pexp_try (s, cases) ->
        sub s;
        List.iter case cases
    | Pexp_for (pat, a, b, _, body) ->
        sub a;
        sub b;
        with_bindings sc (vars pat) (fun () -> sub body)
    | _ -> default_iterator.expr it e
  in
  { default_iterator with expr }

let iter_unshadowed_idents ~f root =
  let sc = scope () in
  let pre e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } when bound sc n -> ()
    | Pexp_ident { txt; _ } -> f txt e.pexp_loc
    | _ -> ()
  in
  let it = scoped_iterator sc ~classify:ignore ~other:() ~pre in
  it.expr it root

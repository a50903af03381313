(* Cross-library call graph with mutable-state effect summaries.

   PR 5's Effects analysis keyed every top-level definition by
   (module, name) alone, so two modules with the same name in different
   libraries — lib/analysis/report.ml and lib/metrics/report.ml, or the
   two Engine modules — clobbered each other in the tables, and effect
   summaries silently stopped at the boundary: a bench/ helper mutating
   a lib/metrics global through two hops was invisible. Keys here carry
   the owning library (derived from the dune layout by Source), and
   resolution understands wrapped access paths (Th_metrics.Bench_log.x),
   sibling access within a library (Bench_log.x from another th_metrics
   module), and open-scoped unqualified names, so the fixpoint is a
   genuine whole-project one.

   The graph also records, per module, which record fields are declared
   [mutable] and which type declarations carry Atomic.t fields — the
   escape analysis classifies captured record literals with it. *)

open Parsetree
module SS = Syntax.SS

type key = { lib : string; modname : string; name : string }

let compare_key a b =
  match String.compare a.lib b.lib with
  | 0 -> (
      match String.compare a.modname b.modname with
      | 0 -> String.compare a.name b.name
      | c -> c)
  | c -> c

let key_to_string k =
  let lib = if k.lib = "" then "?" else k.lib in
  Printf.sprintf "%s/%s.%s" lib k.modname k.name

module KS = Set.Make (struct
  type t = key

  let compare = compare_key
end)

type global = { site : Location.t; blessed : bool }

type t = {
  globals : (key, global) Hashtbl.t;
  defs : (key, expression) Hashtbl.t;
  (* module name -> libraries defining a module of that name *)
  mod_libs : (string, SS.t) Hashtbl.t;
  (* wrapper module name (Th_metrics) -> library tag (th_metrics) *)
  wrappers : (string, string) Hashtbl.t;
  (* (lib, modname) -> record field names declared mutable there *)
  mutable_fields : (string * string, SS.t) Hashtbl.t;
  mutable effects : (key * KS.t) list; (* fixpoint result, assoc *)
}

let wrapper_of_lib lib = String.capitalize_ascii lib

let mutable_ctor_modules =
  SS.of_list
    [
      "Hashtbl"; "Array"; "Bytes"; "Buffer"; "Queue"; "Stack"; "Atomic";
      "Vec"; "Dynarray"; "Weak";
    ]

(* Does an expression allocate mutable state? Covers [ref e],
   [Hashtbl.create n], [Array.make ...], [Vec.create ()], array
   literals, and — via the collected type information — record literals
   that set a field some analyzed module declares [mutable]. *)
let rec is_mutable_init t ~lib ~modname e =
  match e.pexp_desc with
  | Pexp_array _ -> true
  | Pexp_record (fields, _) ->
      List.exists
        (fun ((flid : Longident.t Location.loc), _) ->
          match List.rev (Syntax.flatten_lid flid.txt) with
          | fname :: rest ->
              let owner =
                match rest with
                | [] -> (lib, modname)
                | m :: more -> (
                    match more with
                    | w :: _ when Hashtbl.mem t.wrappers w ->
                        (Hashtbl.find t.wrappers w, m)
                    | _ ->
                        (* Unqualified-library module: same library
                           first, else unique across all. *)
                        (match Hashtbl.find_opt t.mod_libs m with
                        | Some libs when SS.mem lib libs -> (lib, m)
                        | Some libs when SS.cardinal libs = 1 ->
                            (SS.choose libs, m)
                        | _ -> ("", m)))
              in
              (match Hashtbl.find_opt t.mutable_fields owner with
              | Some fs -> SS.mem fname fs
              | None -> false)
          | [] -> false)
        fields
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match List.rev (Syntax.flatten_lid txt) with
      | [ "ref" ] -> true
      | fn :: m :: _ ->
          SS.mem m mutable_ctor_modules
          && List.mem fn [ "create"; "make"; "init"; "copy"; "of_list"; "of_seq" ]
      | _ -> false)
  | Pexp_constraint (e, _) | Pexp_open (_, e) ->
      is_mutable_init t ~lib ~modname e
  | Pexp_let (_, _, body) | Pexp_sequence (_, body) ->
      is_mutable_init t ~lib ~modname body
  | _ -> false

(* A captured Atomic.t or synchronisation primitive is domain-safe by
   construction; the escape rule must not flag it. *)
let is_domain_safe_init e =
  let rec go e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
        match Syntax.last2 (Syntax.flatten_lid txt) with
        | Some (("Atomic" | "Mutex" | "Condition" | "Semaphore"), "create")
        | Some (("Atomic" | "Mutex" | "Condition" | "Semaphore"), "make") ->
            true
        | _ -> false)
    | Pexp_constraint (e, _) | Pexp_open (_, e) -> go e
    | Pexp_let (_, _, body) | Pexp_sequence (_, body) -> go body
    | _ -> false
  in
  go e

(* Resolve an identifier reference made from module [cur_mod] of library
   [cur_lib] to candidate keys among the analyzed definitions.

   - [n]           : the current module if it defines [n]; otherwise the
                     unique analyzed definition of that name (a reference
                     through [open]); ambiguity resolves to nothing.
   - [M.n]         : module M of the current library when it exists
                     there (OCaml's scoping inside a wrapped library);
                     otherwise the unique library defining module M.
   - [W.M.n]       : library wrapper W (e.g. Th_metrics) pins the
                     library exactly.
   - deeper paths  : the trailing [W.M.n] / [M.n] window, so paths
                     through functor-free nesting still land. *)
let resolve t ~cur_lib ~cur_mod lid =
  let exists k = Hashtbl.mem t.globals k || Hashtbl.mem t.defs k in
  let by_module m n =
    match Hashtbl.find_opt t.mod_libs m with
    | None -> []
    | Some libs ->
        if SS.mem cur_lib libs && exists { lib = cur_lib; modname = m; name = n }
        then [ { lib = cur_lib; modname = m; name = n } ]
        else
          let hits =
            SS.fold
              (fun lib acc ->
                let k = { lib; modname = m; name = n } in
                if exists k then k :: acc else acc)
              libs []
          in
          (match hits with [ k ] -> [ k ] | _ -> [])
  in
  match Syntax.flatten_lid lid with
  | [] -> []
  | [ n ] -> (
      let home = { lib = cur_lib; modname = cur_mod; name = n } in
      if exists home then [ home ]
      else
        let hits = ref [] in
        (* th-lint: allow hashtbl-order — membership collection only;
           the result is used only when it is a singleton. *)
        Hashtbl.iter
          (fun k _ -> if String.equal k.name n then hits := k :: !hits)
          t.globals;
        (* th-lint: allow hashtbl-order — as above: membership only. *)
        Hashtbl.iter
          (fun k _ -> if String.equal k.name n then hits := k :: !hits)
          t.defs;
        match !hits with [ k ] -> [ k ] | _ -> [])
  | path -> (
      (* A module nested in the current unit shadows every compilation
         unit of the same name — its bindings are keyed by dotted path. *)
      let local =
        { lib = cur_lib; modname = cur_mod; name = String.concat "." path }
      in
      if exists local then [ local ]
      else
        match List.rev path with
        | n :: m :: rest -> (
            match rest with
            | w :: _ when Hashtbl.mem t.wrappers w ->
                let lib = Hashtbl.find t.wrappers w in
                let k = { lib; modname = m; name = n } in
                if exists k then [ k ] else []
            | _ -> by_module m n)
        | _ -> [])

let build (sources : Source.t list) =
  let t =
    {
      globals = Hashtbl.create 64;
      defs = Hashtbl.create 256;
      mod_libs = Hashtbl.create 64;
      wrappers = Hashtbl.create 16;
      mutable_fields = Hashtbl.create 32;
      effects = [];
    }
  in
  (* Pass 0: module/library landscape and mutable record fields, so the
     later passes can resolve wrapped paths and classify record
     literals. *)
  List.iter
    (fun (s : Source.t) ->
      let prev =
        Option.value ~default:SS.empty (Hashtbl.find_opt t.mod_libs s.modname)
      in
      Hashtbl.replace t.mod_libs s.modname (SS.add s.library prev);
      if s.library <> "" then
        Hashtbl.replace t.wrappers (wrapper_of_lib s.library) s.library;
      match s.ast with
      | Source.Signature _ -> ()
      | Source.Structure str ->
          let muts = ref SS.empty in
          List.iter
            (fun item ->
              match item.pstr_desc with
              | Pstr_type (_, decls) ->
                  List.iter
                    (fun d ->
                      match d.ptype_kind with
                      | Ptype_record labels ->
                          List.iter
                            (fun l ->
                              if l.pld_mutable = Mutable then
                                muts := SS.add l.pld_name.txt !muts)
                            labels
                      | _ -> ())
                    decls
              | _ -> ())
            str;
          if not (SS.is_empty !muts) then
            Hashtbl.replace t.mutable_fields (s.library, s.modname) !muts)
    sources;
  (* Pass 1: bindings — mutable globals and function defs. Nested
     modules are walked too, their bindings keyed by the dotted path
     inside the unit (["Recorder.note"]), so a unit-local module that
     happens to share its name with another library's compilation unit
     shadows it during resolution instead of aliasing into it. *)
  List.iter
    (fun (s : Source.t) ->
      match s.ast with
      | Source.Signature _ -> ()
      | Source.Structure str ->
          let record ~prefix vb =
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } ->
                let name =
                  match prefix with [] -> txt | _ -> String.concat "." (prefix @ [ txt ])
                in
                let key = { lib = s.library; modname = s.modname; name } in
                if is_mutable_init t ~lib:s.library ~modname:s.modname vb.pvb_expr
                then
                  let blessed =
                    List.mem "pmap-mutable-global"
                      (Syntax.attr_allows vb.pvb_attributes)
                  in
                  Hashtbl.replace t.globals key { site = vb.pvb_loc; blessed }
                else Hashtbl.replace t.defs key vb.pvb_expr
            | _ -> ()
          in
          let rec walk ~prefix items =
            List.iter
              (fun item ->
                match item.pstr_desc with
                | Pstr_value (_, vbs) -> List.iter (record ~prefix) vbs
                | Pstr_module mb -> walk_mod ~prefix mb
                | Pstr_recmodule mbs -> List.iter (walk_mod ~prefix) mbs
                | _ -> ())
              items
          and walk_mod ~prefix mb =
            match mb.pmb_name.txt with
            | None -> ()
            | Some m -> (
                let rec body me =
                  match me.pmod_desc with
                  | Pmod_structure items ->
                      walk ~prefix:(prefix @ [ m ]) items
                  | Pmod_constraint (me, _) -> body me
                  | _ -> ()
                in
                body mb.pmb_expr)
          in
          walk ~prefix:[] str)
    sources;
  (* Pass 2: direct effects and call edges per def. *)
  let direct : (key * (KS.t * KS.t)) list =
    (* th-lint: allow hashtbl-order — collected into a list and sorted
       by compare_key immediately after the fold. *)
    Hashtbl.fold
      (fun key body acc ->
        let eff = ref KS.empty and calls = ref KS.empty in
        Syntax.iter_unshadowed_idents body ~f:(fun lid _loc ->
            List.iter
              (fun k ->
                if Hashtbl.mem t.globals k then eff := KS.add k !eff
                else if Hashtbl.mem t.defs k then calls := KS.add k !calls)
              (resolve t ~cur_lib:key.lib ~cur_mod:key.modname lid));
        (key, (!eff, !calls)) :: acc)
      t.defs []
  in
  let direct = List.sort (fun (a, _) (b, _) -> compare_key a b) direct in
  (* Pass 3: transitive closure over the call graph. *)
  let table = Hashtbl.create 256 in
  List.iter (fun (k, (eff, _)) -> Hashtbl.replace table k eff) direct;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (k, (_, calls)) ->
        let cur = Hashtbl.find table k in
        let next =
          KS.fold
            (fun callee acc ->
              match Hashtbl.find_opt table callee with
              | Some e -> KS.union acc e
              | None -> acc)
            calls cur
        in
        if not (KS.equal next cur) then begin
          Hashtbl.replace table k next;
          changed := true
        end)
      direct
  done;
  t.effects <- List.map (fun (k, _) -> (k, Hashtbl.find table k)) direct;
  t

let global_info t key =
  Option.map (fun g -> (g.site, g.blessed)) (Hashtbl.find_opt t.globals key)

let global_site t key =
  match Hashtbl.find_opt t.globals key with
  | Some g ->
      Printf.sprintf "%s:%d" g.site.loc_start.pos_fname
        g.site.loc_start.pos_lnum
  | None -> "?"

let def_effects t key =
  match List.find_opt (fun (k, _) -> compare_key k key = 0) t.effects with
  | Some (_, e) -> KS.elements e
  | None -> []

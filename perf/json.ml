(* Minimal JSON values: enough to print the benchmark's result line,
   check in the smoke test that it is well formed, and read result
   files and BENCHMARK.json back in the comparison tool. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Integral values print without a fraction; every other value keeps all
   17 significant digits, so a measured time is never rounded away. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let to_string v =
  let b = Buffer.create 1024 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num x ->
        if not (Float.is_finite x) then
          invalid_arg "Json.to_string: non-finite number";
        Buffer.add_string b (number x)
    | Str s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b ", ";
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string b ", ";
            Buffer.add_char b '"';
            escape b k;
            Buffer.add_string b "\": ";
            go x)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

exception Syntax of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Syntax (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let at c = !pos < n && Char.equal s.[!pos] c in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some c' when Char.equal c c' -> incr pos
    | Some _ | None -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.equal (String.sub s !pos len) word then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal"
  in
  let add_utf8 b code =
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'
          | Some '\\' -> Buffer.add_char b '\\'
          | Some '/' -> Buffer.add_char b '/'
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'u' ->
              if !pos + 4 >= n then fail "short \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some code -> add_utf8 b code
              | None -> fail "bad \\u escape");
              pos := !pos + 4
          | Some _ | None -> fail "bad escape");
          incr pos;
          go ()
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number_lit () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
          incr pos;
          go ()
      | Some _ | None -> ()
    in
    go ();
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x when Float.is_finite x -> Num x
    | Some _ | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | Some _ | None -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elements (v :: acc)
            | Some ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | Some _ | None -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number_lit ()
    | Some _ | None -> fail "expected a value"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Syntax (at, msg) ->
      Error (Printf.sprintf "JSON syntax error at byte %d: %s" at msg)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

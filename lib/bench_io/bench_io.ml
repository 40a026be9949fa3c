(* A minimal recursive-descent JSON reader (objects, arrays, strings with
   \-escapes, numbers, null, true/false).  No dependency. *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Parse_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'u' ->
              (* Good enough for our ASCII metadata: decode the code
                 point bytewise when it fits one byte, else substitute. *)
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some c when c < 0x80 -> Buffer.add_char buf (Char.chr c)
              | Some _ -> Buffer.add_char buf '?'
              | None -> fail "bad \\u escape");
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          loop ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_str (parse_string ())
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some 'n' -> literal "null" J_null
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some ('-' | '0' .. '9') -> J_num (parse_number ())
    | _ -> fail "expected a value"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      J_obj []
    end
    else begin
      let fields = ref [] in
      let rec loop () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); loop ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      loop ();
      J_obj (List.rev !fields)
    end
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      J_arr []
    end
    else begin
      let items = ref [] in
      let rec loop () =
        let v = parse_value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); loop ()
        | Some ']' -> advance ()
        | _ -> fail "expected ',' or ']'"
      in
      loop ();
      J_arr (List.rev !items)
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let json_of_string text =
  match parse_json text with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

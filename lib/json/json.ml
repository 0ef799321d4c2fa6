type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

(* Bytes that print as themselves go out in runs between escapes, one
   [Buffer.add_substring] per run. *)
let escape_into b s =
  Buffer.add_char b '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring b s !start (i - !start);
      start := i + 1;
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c ->
        let hex d = "0123456789abcdef".[d] in
        Buffer.add_string b "\\u00";
        Buffer.add_char b (hex (Char.code c lsr 4));
        Buffer.add_char b (hex (Char.code c land 0xf))
    end
  done;
  Buffer.add_substring b s !start (String.length s - !start);
  Buffer.add_char b '"'

let to_buffer b v =
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f ->
      (* keep the rendering valid JSON: no "nan"/"inf" tokens *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.1f" f)
      else if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.6g" f)
      else Buffer.add_string b "null"
    | Str s -> escape_into b s
    | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          go x)
        xs;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          escape_into b k;
          Buffer.add_char b ':';
          go x)
        fields;
      Buffer.add_char b '}'
  in
  go v

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Bad of string * int

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (msg, !pos)) in
  let advance () = incr pos in
  (* the byte at [pos], which must exist *)
  let here () = String.unsafe_get s !pos in
  let skip_ws () =
    while
      !pos < n && match here () with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let at c = !pos < n && here () = c in
  let expect c = if at c then advance () else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let l = String.length word in
    let rec same i = i = l || (s.[!pos + i] = word.[i] && same (i + 1)) in
    if !pos + l <= n && same 0 then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* One buffer per document.  A string is read in runs: the bytes up to
     the next quote or backslash are copied at once, then the escape (or
     the closing quote) is handled. *)
  let b = Buffer.create 64 in
  let parse_string () =
    expect '"';
    Buffer.clear b;
    let rec go () =
      let start = !pos in
      while !pos < n && match here () with '"' | '\\' -> false | _ -> true do
        advance ()
      done;
      Buffer.add_substring b s start (!pos - start);
      if !pos >= n then fail "unterminated string";
      let c = here () in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | _ -> (
        if !pos >= n then fail "unterminated escape";
        let e = here () in
        advance ();
        match e with
        | '"' | '\\' | '/' ->
          Buffer.add_char b e;
          go ()
        | 'n' ->
          Buffer.add_char b '\n';
          go ()
        | 't' ->
          Buffer.add_char b '\t';
          go ()
        | 'r' ->
          Buffer.add_char b '\r';
          go ()
        | 'b' ->
          Buffer.add_char b '\b';
          go ()
        | 'f' ->
          Buffer.add_char b '\012';
          go ()
        | 'u' ->
          (* [int_of_string_opt "0x…"] accepted underscores inside the
             four "hex" digits; scan them strictly instead. *)
          let hex4 () =
            if !pos + 4 > n then fail "short \\u escape";
            let v = ref 0 in
            for _ = 1 to 4 do
              let d =
                match s.[!pos] with
                | '0' .. '9' as c -> Char.code c - Char.code '0'
                | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                | _ -> fail "bad \\u escape"
              in
              v := (!v lsl 4) lor d;
              advance ()
            done;
            !v
          in
          let code = hex4 () in
          (* a high surrogate must pair with a following low surrogate;
             the pair combines into one supplementary code point instead
             of two raw unpaired triplets *)
          let code =
            if code >= 0xD800 && code <= 0xDBFF then begin
              if
                !pos + 2 > n
                || s.[!pos] <> '\\'
                || s.[!pos + 1] <> 'u'
              then fail "unpaired high surrogate";
              pos := !pos + 2;
              let low = hex4 () in
              if low < 0xDC00 || low > 0xDFFF then fail "unpaired high surrogate";
              0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
            end
            else if code >= 0xDC00 && code <= 0xDFFF then
              fail "unpaired low surrogate"
            else code
          in
          (* UTF-8 encode the code point *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else if code < 0x10000 then begin
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end;
          go ()
        | _ -> fail "bad escape")
    in
    go ()
  in
  (* The JSON number grammar, checked explicitly: an optional minus, an
     integer part without leading zeros, an optional ".digits" fraction
     and an optional "[eE][+-]digits" exponent.  [int_of_string_opt]
     alone accepted "+5", "0x1f", "1_000" and leading zeros — none of
     which are JSON. *)
  let valid_number tok =
    let m = String.length tok in
    let p = ref 0 in
    let digits () =
      let start = !p in
      while !p < m && (match tok.[!p] with '0' .. '9' -> true | _ -> false) do
        incr p
      done;
      !p > start
    in
    let ok = ref true in
    if !p < m && tok.[!p] = '-' then incr p;
    (match if !p < m then Some tok.[!p] else None with
    | Some '0' -> incr p (* a leading 0 must stand alone *)
    | Some ('1' .. '9') -> ignore (digits ())
    | _ -> ok := false);
    if !ok && !p < m && tok.[!p] = '.' then begin
      incr p;
      if not (digits ()) then ok := false
    end;
    if !ok && !p < m && (tok.[!p] = 'e' || tok.[!p] = 'E') then begin
      incr p;
      if !p < m && (tok.[!p] = '+' || tok.[!p] = '-') then incr p;
      if not (digits ()) then ok := false
    end;
    !ok && !p = m
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if not (valid_number tok) then fail (Printf.sprintf "bad number %S" tok);
    let has_frac =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok
    in
    if has_frac then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        (* magnitude beyond the int range: keep the value, lose precision *)
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match here () with
    | '{' ->
      advance ();
      skip_ws ();
      if at '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          if at ',' then begin
            advance ();
            fields_loop ()
          end
          else if at '}' then advance ()
          else fail "expected , or } in object"
        in
        fields_loop ();
        Obj (List.rev !fields)
      end
    | '[' ->
      advance ();
      skip_ws ();
      if at ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          if at ',' then begin
            advance ();
            items_loop ()
          end
          else if at ']' then advance ()
          else fail "expected , or ] in array"
        in
        items_loop ();
        List (List.rev !items)
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (msg, p) -> Error (Printf.sprintf "json: %s at offset %d" msg p)

(* ---------- accessors ---------- *)

let rec assoc k = function
  | [] -> None
  | (k', v) :: tl -> if String.equal k k' then Some v else assoc k tl

let member k = function Obj fields -> assoc k fields | _ -> None

let str = function Str s -> Some s | _ -> None

(* [-2^62, 2^62) is the int range: [int_of_float] outside it is not
   the float's value. *)
let int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 -> Some (int_of_float f)
  | _ -> None

let number = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None

let list = function List xs -> Some xs | _ -> None

let mem_str k j = Option.bind (member k j) str
let mem_int k j = Option.bind (member k j) int
let mem_number k j = Option.bind (member k j) number

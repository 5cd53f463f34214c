(* Hand-rolled JSON (emit + minimal parse): machine-checkable artifacts
   without new dependencies.  Moved here from bench/main.ml so the
   benchmark harness, the solver statistics and the diagnostics engine
   share one emitter. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool

let int i = Num (float_of_int i)

let member name = function Obj fs -> List.assoc_opt name fs | _ -> None

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec emit ?(indent = 0) b t =
  let pad n = Buffer.add_string b (String.make n ' ') in
  match t with
  | Obj fields ->
      Buffer.add_string b "{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          add_string b k;
          Buffer.add_string b ": ";
          emit ~indent b v)
        fields;
      Buffer.add_string b "}"
  | Arr [] -> Buffer.add_string b "[]"
  | Arr xs ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ",\n";
          pad (indent + 2);
          emit ~indent:(indent + 2) b v)
        xs;
      Buffer.add_char b '\n';
      pad indent;
      Buffer.add_char b ']'
  | Str s -> add_string b s
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.0f" f)
      else Buffer.add_string b (Printf.sprintf "%.3f" f)
  | Bool bo -> Buffer.add_string b (if bo then "true" else "false")

let to_string t =
  let b = Buffer.create 1024 in
  emit b t;
  Buffer.add_char b '\n';
  Buffer.contents b

exception Parse_error of string

(* Every test for the end of input comes before the character is read,
   so no character is boxed; an escape-free string is one [String.sub]. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let at c = !pos < n && Char.equal (s.[!pos]) c in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  (* the escaped tail of a string whose first [!pos - start] characters
     were plain *)
  let escaped start =
    let b = Buffer.create (2 * (!pos - start) + 16) in
    Buffer.add_substring b s start (!pos - start);
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "bad escape"
            else begin
              let c = s.[!pos] in
              Buffer.add_char b (if Char.equal c 'n' then '\n' else c);
              incr pos;
              go ()
            end
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let string_lit () =
    expect '"';
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '"' | '\\' -> false | _ -> true
    do
      incr pos
    done;
    if at '"' then begin
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else escaped start
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let number () =
    let start = !pos in
    let numeric = function
      | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
      | _ -> false
    in
    while !pos < n && numeric s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected character"
    else
      match s.[!pos] with
      | '{' -> obj ()
      | '[' -> arr ()
      | '"' -> Str (string_lit ())
      | 't' -> lit "true" (Bool true)
      | 'f' -> lit "false" (Bool false)
      | '-' | '0' .. '9' -> number ()
      | _ -> fail "unexpected character"
  and obj () =
    expect '{';
    skip_ws ();
    if at '}' then begin
      incr pos;
      Obj []
    end
    else
      let rec fields acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        if at ',' then begin
          incr pos;
          fields ((k, v) :: acc)
        end
        else if at '}' then begin
          incr pos;
          Obj (List.rev ((k, v) :: acc))
        end
        else fail "expected ',' or '}'"
      in
      fields []
  and arr () =
    expect '[';
    skip_ws ();
    if at ']' then begin
      incr pos;
      Arr []
    end
    else
      let rec elems acc =
        let v = value () in
        skip_ws ();
        if at ',' then begin
          incr pos;
          elems (v :: acc)
        end
        else if at ']' then begin
          incr pos;
          Arr (List.rev (v :: acc))
        end
        else fail "expected ',' or ']'"
      in
      elems []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

exception Error of Loc.t * string

type spanned = { token : Token.t; loc : Loc.t }

type state = {
  src : string;
  file : string;
  mutable off : int;
  mutable line : int;
  mutable col : int;
  mutable comments : (Loc.t * string) list;  (* block comments, reversed *)
}

let pos_of st : Loc.pos = { line = st.line; col = st.col }

let loc_from st start_pos =
  Loc.make ~file:st.file ~start_pos ~end_pos:(pos_of st)

let error st start_pos msg = raise (Error (loc_from st start_pos, msg))

(* Characters are looked at without an option: test [at_end] first, then
   read [cur]. *)
let at_end st = st.off >= String.length st.src
let cur st = st.src.[st.off]
let looking_at st c = (not (at_end st)) && cur st = c

(* the character after the current one is [c] *)
let next_is st c = st.off + 1 < String.length st.src && st.src.[st.off + 1] = c

let advance st =
  if not (at_end st) then
    if cur st = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
  st.off <- st.off + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_start c = is_alpha c || c = '_'
let is_ident_char c = is_ident_start c || is_digit c || c = '\''

(* Skips whitespace, "--" line comments, and nested "(* *)" comments. *)
let rec skip_trivia st =
  if not (at_end st) then
    match cur st with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_trivia st
    | '-' when next_is st '-' ->
        while not (at_end st || cur st = '\n') do
          advance st
        done;
        skip_trivia st
    | '(' when next_is st '*' ->
        let start = pos_of st in
        let start_off = st.off in
        advance st;
        advance st;
        skip_comment st start 1;
        (* record the body (between the outermost markers) with the span of
           the whole comment — the lint suppression directives live here *)
        let text = String.sub st.src (start_off + 2) (max 0 (st.off - start_off - 4)) in
        st.comments <- (loc_from st start, text) :: st.comments;
        skip_trivia st
    | _ -> ()

and skip_comment st start depth =
  if depth > 0 then
    if at_end st then error st start "unterminated comment"
    else if cur st = '*' && next_is st ')' then begin
      advance st;
      advance st;
      skip_comment st start (depth - 1)
    end
    else if cur st = '(' && next_is st '*' then begin
      advance st;
      advance st;
      skip_comment st start (depth + 1)
    end
    else begin
      advance st;
      skip_comment st start depth
    end

let lex_int st =
  let start_pos = pos_of st in
  let start_off = st.off in
  while (not (at_end st)) && is_digit (cur st) do
    advance st
  done;
  let text = String.sub st.src start_off (st.off - start_off) in
  match int_of_string_opt text with
  | Some n -> Token.INT n
  | None -> error st start_pos (Printf.sprintf "integer literal %s is out of range" text)

let lex_ident st =
  let start_off = st.off in
  while (not (at_end st)) && is_ident_char (cur st) do
    advance st
  done;
  let text = String.sub st.src start_off (st.off - start_off) in
  match Token.keyword_of_string text with
  | Some tok -> tok
  | None -> Token.IDENT text

let single st tok =
  advance st;
  tok

(* the current character, already consumed, starts [tok]; [tok2] when
   it is followed by [c] *)
let one_or_two st c ~tok2 tok =
  advance st;
  if looking_at st c then single st tok2 else tok

let next_token st : spanned =
  skip_trivia st;
  let start_pos = pos_of st in
  let token =
    if at_end st then Token.EOF
    else
      match cur st with
      | c when is_digit c -> lex_int st
      | c when is_ident_start c -> lex_ident st
      | '(' -> single st Token.LPAREN
      | ')' -> single st Token.RPAREN
      | '[' -> single st Token.LBRACKET
      | ']' -> single st Token.RBRACKET
      | '+' -> single st Token.PLUS
      | '*' -> single st Token.STAR
      | '.' -> single st Token.DOT
      | ',' -> single st Token.COMMA
      | ';' -> single st Token.SEMI
      | '=' -> single st Token.EQ
      | '-' -> one_or_two st '>' ~tok2:Token.ARROW Token.MINUS
      | '<' ->
          advance st;
          if looking_at st '=' then single st Token.LE
          else if looking_at st '>' then single st Token.NE
          else Token.LT
      | '>' -> one_or_two st '=' ~tok2:Token.GE Token.GT
      | ':' ->
          advance st;
          if looking_at st ':' then single st Token.CONS_OP
          else error st start_pos "expected '::' (single ':' is not a token)"
      | '\\' -> single st Token.LAMBDA
      | c -> error st start_pos (Printf.sprintf "unexpected character %C" c)
  in
  { token; loc = loc_from st start_pos }

let tokenize ?(file = "<string>") src =
  let st = { src; file; off = 0; line = 1; col = 1; comments = [] } in
  let rec loop acc =
    let sp = next_token st in
    if Token.equal sp.token Token.EOF then List.rev (sp :: acc) else loop (sp :: acc)
  in
  loop []

let tokens ?file src = List.map (fun sp -> sp.token) (tokenize ?file src)

let comments ?(file = "<string>") src =
  let st = { src; file; off = 0; line = 1; col = 1; comments = [] } in
  let rec loop () =
    if not (Token.equal (next_token st).token Token.EOF) then loop ()
  in
  loop ();
  List.rev st.comments

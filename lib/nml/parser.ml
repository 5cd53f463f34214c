exception Error of Loc.t * string

type state = { toks : Lexer.spanned array; mutable pos : int }

let current st = st.toks.(st.pos)
let peek st = (current st).Lexer.token
let peek_loc st = (current st).Lexer.loc

let advance st =
  let sp = current st in
  if not (Token.equal sp.Lexer.token Token.EOF) then st.pos <- st.pos + 1;
  sp

let error st msg = raise (Error (peek_loc st, msg))

let expect st tok =
  let sp = current st in
  if Token.equal sp.Lexer.token tok then ignore (advance st)
  else
    error st
      (Printf.sprintf "expected %s but found %s" (Token.to_string tok)
         (Token.to_string sp.Lexer.token))

let expect_ident st =
  match peek st with
  | Token.IDENT x ->
      ignore (advance st);
      x
  | t -> error st (Printf.sprintf "expected an identifier but found %s" (Token.to_string t))

(* The names bound around an expression: only membership is asked. *)
module Scope = Set.Make (String)

let bind xs scope = List.fold_left (fun s x -> Scope.add x s) scope xs

(* An identifier occurrence: a bound name is a variable; otherwise the
   alphabetic primitives (cons, car, cdr, null) denote constants. *)
let resolve_ident loc scope x =
  if Scope.mem x scope then Ast.Var (loc, x)
  else if String.equal x "leaf" then Ast.Const (loc, Ast.Cleaf)
  else
    match Ast.prim_of_name x with
    | Some p -> Ast.Prim (loc, p)
    | None -> Ast.Var (loc, x)

(* Infix applications span from the left operand to the right one (the
   operator's own location sits between them). *)
let binop l p lhs rhs =
  let loc = Loc.merge (Ast.loc lhs) (Ast.loc rhs) in
  Ast.App (loc, Ast.App (loc, Ast.Prim (l, p), lhs), rhs)

let starts_atom = function
  | Token.INT _ | Token.IDENT _ | Token.TRUE | Token.FALSE | Token.NIL | Token.LPAREN
  | Token.LBRACKET | Token.NOT ->
      true
  | _ -> false

let rec parse_expression st scope =
  match peek st with
  | Token.LAMBDA -> parse_lambda st scope
  | Token.FUN -> parse_fun st scope
  | Token.IF -> parse_if st scope
  | Token.LET -> parse_let st scope
  | Token.LETREC -> parse_letrec st scope
  | _ -> parse_or st scope

(* lambda(x). e   or   \x. e *)
and parse_lambda st scope =
  let start = peek_loc st in
  expect st Token.LAMBDA;
  let x =
    if Token.equal (peek st) Token.LPAREN then (
      expect st Token.LPAREN;
      let x = expect_ident st in
      expect st Token.RPAREN;
      x)
    else expect_ident st
  in
  expect st Token.DOT;
  let body = parse_expression st (Scope.add x scope) in
  Ast.Lam (Loc.merge start (Ast.loc body), x, body)

(* fun x1 ... xn -> e *)
and parse_fun st scope =
  let start = peek_loc st in
  expect st Token.FUN;
  let rec params acc =
    match peek st with
    | Token.IDENT x ->
        ignore (advance st);
        params (x :: acc)
    | Token.ARROW -> List.rev acc
    | _ -> error st "expected a parameter or '->' in fun expression"
  in
  let xs = params [] in
  if xs = [] then error st "fun expression needs at least one parameter";
  expect st Token.ARROW;
  let body = parse_expression st (bind xs scope) in
  let e = Ast.lams xs body in
  (* restore the overall location on the outermost lambda *)
  match e with
  | Ast.Lam (_, x, b) -> Ast.Lam (Loc.merge start (Ast.loc body), x, b)
  | _ -> assert false

and parse_if st scope =
  let start = peek_loc st in
  expect st Token.IF;
  let c = parse_expression st scope in
  expect st Token.THEN;
  let t = parse_expression st scope in
  expect st Token.ELSE;
  let f = parse_expression st scope in
  Ast.If (Loc.merge start (Ast.loc f), c, t, f)

(* let x p1 ... pn = e1 in e2   ==>   (lambda(x). e2) (lambda(p1)...e1) *)
and parse_let st scope =
  let start = peek_loc st in
  expect st Token.LET;
  let x, rhs = parse_binding st scope ~recursive_name:None in
  expect st Token.IN;
  let body = parse_expression st (Scope.add x scope) in
  let l = Loc.merge start (Ast.loc body) in
  Ast.App (l, Ast.Lam (l, x, body), rhs)

and parse_letrec st scope =
  let start = peek_loc st in
  expect st Token.LETREC;
  (* All binding names are in scope in every right-hand side. *)
  let names = scan_binding_names st in
  let scope' = bind names scope in
  let rec bindings acc =
    let x, rhs = parse_binding st scope' ~recursive_name:None in
    let acc = (x, rhs) :: acc in
    if Token.equal (peek st) Token.SEMI then (
      expect st Token.SEMI;
      if Token.equal (peek st) Token.IN then List.rev acc else bindings acc)
    else List.rev acc
  in
  let bs = bindings [] in
  expect st Token.IN;
  let body = parse_expression st scope' in
  Ast.Letrec (Loc.merge start (Ast.loc body), bs, body)

(* Pre-scans "x params = ... ;" groups to collect mutually recursive names
   without consuming tokens. *)
and scan_binding_names st =
  let i = ref st.pos in
  let names = ref [] in
  let depth = ref 0 in
  let continue = ref true in
  let n = Array.length st.toks in
  (* The name of a binding is the identifier right after LETREC or after a
     top-level ';'. *)
  (match st.toks.(!i).Lexer.token with
  | Token.IDENT x -> names := [ x ]
  | _ -> ());
  while !continue && !i < n - 1 do
    (match st.toks.(!i).Lexer.token with
    | Token.LPAREN | Token.LBRACKET -> incr depth
    | Token.RPAREN | Token.RBRACKET -> decr depth
    | Token.LETREC | Token.LET -> incr depth
    | Token.IN -> if !depth = 0 then continue := false else decr depth
    | Token.SEMI when !depth = 0 -> (
        match st.toks.(!i + 1).Lexer.token with
        | Token.IDENT x -> names := x :: !names
        | _ -> ())
    | Token.EOF -> continue := false
    | _ -> ());
    incr i
  done;
  List.rev !names

(* x p1 ... pn = e, returning (x, lambda(p1)...lambda(pn). e). *)
and parse_binding st scope ~recursive_name:_ =
  let x = expect_ident st in
  let rec params acc =
    match peek st with
    | Token.IDENT p ->
        ignore (advance st);
        params (p :: acc)
    | Token.EQ -> List.rev acc
    | _ -> error st "expected a parameter or '=' in binding"
  in
  let ps = params [] in
  expect st Token.EQ;
  let rhs_scope = bind ps (Scope.add x scope) in
  let rhs = parse_expression st rhs_scope in
  (x, Ast.lams ps rhs)

and parse_or st scope =
  let lhs = parse_and st scope in
  if Token.equal (peek st) Token.OR then (
    let l = peek_loc st in
    expect st Token.OR;
    let rhs = parse_or st scope in
    binop l Ast.Or lhs rhs)
  else lhs

and parse_and st scope =
  let lhs = parse_cmp st scope in
  if Token.equal (peek st) Token.AND then (
    let l = peek_loc st in
    expect st Token.AND;
    let rhs = parse_and st scope in
    binop l Ast.And lhs rhs)
  else lhs

and parse_cmp st scope =
  let lhs = parse_cons st scope in
  let op =
    match peek st with
    | Token.EQ -> Some Ast.Eq
    | Token.NE -> Some Ast.Ne
    | Token.LT -> Some Ast.Lt
    | Token.LE -> Some Ast.Le
    | Token.GT -> Some Ast.Gt
    | Token.GE -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some p ->
      let l = peek_loc st in
      ignore (advance st);
      let rhs = parse_cons st scope in
      binop l p lhs rhs

and parse_cons st scope =
  let lhs = parse_add st scope in
  if Token.equal (peek st) Token.CONS_OP then (
    let l = peek_loc st in
    expect st Token.CONS_OP;
    let rhs = parse_cons st scope in
    binop l Ast.Cons lhs rhs)
  else lhs

and parse_add st scope =
  let lhs =
    if Token.equal (peek st) Token.MINUS then (
      let l = peek_loc st in
      expect st Token.MINUS;
      match parse_mul st scope with
      | Ast.Const (cl, Ast.Cint n) -> Ast.Const (Loc.merge l cl, Ast.Cint (-n))
      | e -> binop l Ast.Sub (Ast.Const (l, Ast.Cint 0)) e)
    else parse_mul st scope
  in
  let rec loop lhs =
    match peek st with
    | Token.PLUS ->
        let l = peek_loc st in
        expect st Token.PLUS;
        loop (binop l Ast.Add lhs (parse_mul st scope))
    | Token.MINUS ->
        let l = peek_loc st in
        expect st Token.MINUS;
        loop (binop l Ast.Sub lhs (parse_mul st scope))
    | _ -> lhs
  in
  loop lhs

and parse_mul st scope =
  let rec loop lhs =
    match peek st with
    | Token.STAR ->
        let l = peek_loc st in
        expect st Token.STAR;
        loop (binop l Ast.Mul lhs (parse_app st scope))
    | Token.DIV ->
        let l = peek_loc st in
        expect st Token.DIV;
        loop (binop l Ast.Div lhs (parse_app st scope))
    | Token.MOD ->
        let l = peek_loc st in
        expect st Token.MOD;
        loop (binop l Ast.Mod lhs (parse_app st scope))
    | _ -> lhs
  in
  loop (parse_app st scope)

and parse_app st scope =
  let head = parse_atom st scope in
  let rec loop acc = if starts_atom (peek st) then loop (Ast.app acc [ parse_atom st scope ]) else acc in
  loop head

and parse_atom st scope =
  let l = peek_loc st in
  match peek st with
  | Token.INT n ->
      ignore (advance st);
      Ast.Const (l, Ast.Cint n)
  | Token.TRUE ->
      ignore (advance st);
      Ast.Const (l, Ast.Cbool true)
  | Token.FALSE ->
      ignore (advance st);
      Ast.Const (l, Ast.Cbool false)
  | Token.NIL ->
      ignore (advance st);
      Ast.Const (l, Ast.Cnil)
  | Token.IDENT x ->
      ignore (advance st);
      resolve_ident l scope x
  | Token.NOT ->
      ignore (advance st);
      Ast.app (Ast.Prim (l, Ast.Not)) [ parse_atom st scope ]
  | Token.LPAREN ->
      expect st Token.LPAREN;
      let e = parse_expression st scope in
      expect st Token.RPAREN;
      e
  | Token.LBRACKET ->
      expect st Token.LBRACKET;
      if Token.equal (peek st) Token.RBRACKET then (
        expect st Token.RBRACKET;
        Ast.Const (l, Ast.Cnil))
      else
        let rec elems acc =
          let e = parse_expression st scope in
          match peek st with
          | Token.COMMA | Token.SEMI ->
              ignore (advance st);
              elems (e :: acc)
          | Token.RBRACKET ->
              expect st Token.RBRACKET;
              List.rev (e :: acc)
          | t ->
              error st
                (Printf.sprintf "expected ',', ';' or ']' in list literal, found %s"
                   (Token.to_string t))
        in
        Ast.list_lit l (elems [])
  | t -> error st (Printf.sprintf "unexpected token %s" (Token.to_string t))

let parse ?(file = "<string>") src =
  let toks = Array.of_list (Lexer.tokenize ~file src) in
  let st = { toks; pos = 0 } in
  let e = parse_expression st Scope.empty in
  (match peek st with
  | Token.EOF -> ()
  | t -> error st (Printf.sprintf "trailing input starting with %s" (Token.to_string t)));
  e

let parse_expr = parse

type prim =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Not
  | Cons
  | Car
  | Cdr
  | Null
  | Pair
  | Fst
  | Snd
  | Node
  | Isleaf
  | Label
  | Left
  | Right

type const = Cint of int | Cbool of bool | Cnil | Cleaf

type expr =
  | Const of Loc.t * const
  | Prim of Loc.t * prim
  | Var of Loc.t * string
  | App of Loc.t * expr * expr
  | Lam of Loc.t * string * expr
  | If of Loc.t * expr * expr * expr
  | Letrec of Loc.t * (string * expr) list * expr

type program = expr

let loc = function
  | Const (l, _)
  | Prim (l, _)
  | Var (l, _)
  | App (l, _, _)
  | Lam (l, _, _)
  | If (l, _, _, _)
  | Letrec (l, _, _) ->
      l

let prim_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "div"
  | Mod -> "mod"
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "and"
  | Or -> "or"
  | Not -> "not"
  | Cons -> "cons"
  | Car -> "car"
  | Cdr -> "cdr"
  | Null -> "null"
  | Pair -> "mkpair"
  | Fst -> "fst"
  | Snd -> "snd"
  | Node -> "node"
  | Isleaf -> "isleaf"
  | Label -> "label"
  | Left -> "left"
  | Right -> "right"

let prim_of_name = function
  | "cons" -> Some Cons
  | "car" -> Some Car
  | "cdr" -> Some Cdr
  | "null" -> Some Null
  | "mkpair" -> Some Pair
  | "fst" -> Some Fst
  | "snd" -> Some Snd
  | "node" -> Some Node
  | "isleaf" -> Some Isleaf
  | "label" -> Some Label
  | "left" -> Some Left
  | "right" -> Some Right
  | _ -> None

let prim_arity = function
  | Not | Car | Cdr | Null | Fst | Snd | Isleaf | Label | Left | Right -> 1
  | Add | Sub | Mul | Div | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or | Cons | Pair
    ->
      2
  | Node -> 3

let equal_prim (a : prim) (b : prim) = a = b
let equal_const (a : const) (b : const) = a = b

let rec equal a b =
  match (a, b) with
  | Const (_, c1), Const (_, c2) -> equal_const c1 c2
  | Prim (_, p1), Prim (_, p2) -> equal_prim p1 p2
  | Var (_, x1), Var (_, x2) -> String.equal x1 x2
  | App (_, f1, a1), App (_, f2, a2) -> equal f1 f2 && equal a1 a2
  | Lam (_, x1, e1), Lam (_, x2, e2) -> String.equal x1 x2 && equal e1 e2
  | If (_, c1, t1, e1), If (_, c2, t2, e2) -> equal c1 c2 && equal t1 t2 && equal e1 e2
  | Letrec (_, bs1, e1), Letrec (_, bs2, e2) ->
      List.length bs1 = List.length bs2
      && List.for_all2
           (fun (x1, b1) (x2, b2) -> String.equal x1 x2 && equal b1 b2)
           bs1 bs2
      && equal e1 e2
  | ( ( Const _ | Prim _ | Var _ | App _ | Lam _ | If _ | Letrec _ ),
      ( Const _ | Prim _ | Var _ | App _ | Lam _ | If _ | Letrec _ ) ) ->
      false

(* One tag per constructor in pre-order, so the string is a prefix
   code: names carry their length, integers end in ';', and a letrec its
   binding count.  Locations are not written, so two expressions get one
   key exactly when [equal] holds. *)
let prim_tag = function
  | Add -> '+'
  | Sub -> '-'
  | Mul -> '*'
  | Div -> '/'
  | Mod -> '%'
  | Eq -> '='
  | Ne -> '!'
  | Lt -> '<'
  | Le -> '['
  | Gt -> '>'
  | Ge -> ']'
  | And -> '&'
  | Or -> '|'
  | Not -> '~'
  | Cons -> 'c'
  | Car -> 'h'
  | Cdr -> 't'
  | Null -> 'n'
  | Pair -> 'p'
  | Fst -> '1'
  | Snd -> '2'
  | Node -> 'o'
  | Isleaf -> 'e'
  | Label -> 'b'
  | Left -> 'l'
  | Right -> 'r'

let add_name b x =
  Buffer.add_string b (string_of_int (String.length x));
  Buffer.add_char b ':';
  Buffer.add_string b x

let rec add_key b = function
  | Const (_, Cint n) ->
      Buffer.add_char b 'i';
      Buffer.add_string b (string_of_int n);
      Buffer.add_char b ';'
  | Const (_, Cbool true) -> Buffer.add_char b 'T'
  | Const (_, Cbool false) -> Buffer.add_char b 'F'
  | Const (_, Cnil) -> Buffer.add_char b 'N'
  | Const (_, Cleaf) -> Buffer.add_char b 'L'
  | Prim (_, p) ->
      Buffer.add_char b 'p';
      Buffer.add_char b (prim_tag p)
  | Var (_, x) ->
      Buffer.add_char b 'v';
      add_name b x
  | App (_, f, a) ->
      Buffer.add_char b 'a';
      add_key b f;
      add_key b a
  | Lam (_, x, e) ->
      Buffer.add_char b 'l';
      add_name b x;
      add_key b e
  | If (_, c, t, e) ->
      Buffer.add_char b '?';
      add_key b c;
      add_key b t;
      add_key b e
  | Letrec (_, bs, e) ->
      Buffer.add_char b 'r';
      Buffer.add_string b (string_of_int (List.length bs));
      Buffer.add_char b ';';
      List.iter
        (fun (x, rhs) ->
          add_name b x;
          add_key b rhs)
        bs;
      add_key b e

let key e =
  let b = Buffer.create 64 in
  add_key b e;
  Buffer.contents b

let free_vars e =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let add x =
    if not (Hashtbl.mem seen x) then (
      Hashtbl.add seen x ();
      acc := x :: !acc)
  in
  let rec go bound = function
    | Const _ | Prim _ -> ()
    | Var (_, x) -> if not (List.mem x bound) then add x
    | App (_, f, a) ->
        go bound f;
        go bound a
    | Lam (_, x, b) -> go (x :: bound) b
    | If (_, c, t, f) ->
        go bound c;
        go bound t;
        go bound f
    | Letrec (_, bs, body) ->
        let bound' = List.map fst bs @ bound in
        List.iter (fun (_, b) -> go bound' b) bs;
        go bound' body
  in
  go [] e;
  List.rev !acc

let rec subst_var x y e =
  match e with
  | Const _ | Prim _ -> e
  | Var (l, z) -> if String.equal z x then Var (l, y) else e
  | App (l, f, a) -> App (l, subst_var x y f, subst_var x y a)
  | Lam (l, z, b) -> if String.equal z x then e else Lam (l, z, subst_var x y b)
  | If (l, c, t, f) -> If (l, subst_var x y c, subst_var x y t, subst_var x y f)
  | Letrec (l, bs, body) ->
      if List.exists (fun (z, _) -> String.equal z x) bs then e
      else
        Letrec (l, List.map (fun (z, b) -> (z, subst_var x y b)) bs, subst_var x y body)

let app f args = List.fold_left (fun acc a -> App (Loc.merge (loc acc) (loc a), acc, a)) f args
let lams xs e = List.fold_right (fun x acc -> Lam (loc acc, x, acc)) xs e

let list_lit l elems =
  List.fold_right
    (fun e acc -> App (l, App (l, Prim (l, Cons), e), acc))
    elems (Const (l, Cnil))

let int n = Const (Loc.dummy, Cint n)
let bool b = Const (Loc.dummy, Cbool b)
let nil = Const (Loc.dummy, Cnil)
let var x = Var (Loc.dummy, x)

let rec size = function
  | Const _ | Prim _ | Var _ -> 1
  | App (_, f, a) -> 1 + size f + size a
  | Lam (_, _, b) -> 1 + size b
  | If (_, c, t, f) -> 1 + size c + size t + size f
  | Letrec (_, bs, body) ->
      1 + List.fold_left (fun acc (_, b) -> acc + size b) (size body) bs

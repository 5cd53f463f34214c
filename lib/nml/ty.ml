type t =
  | Int
  | Bool
  | List of t
  | Tree of t
  | Prod of t * t
  | Arrow of t * t
  | Var of var ref

and var = Unbound of int * int | Link of t

(* Atomic so that programs inferred concurrently in different domains
   (the batch driver) never mint duplicate variable ids: a torn
   read-modify-write on a plain ref could hand the same id to two
   variables of one program, conflating them under generalization. *)
let counter = Atomic.make 0
let fresh_var ~level = Var (ref (Unbound (Atomic.fetch_and_add counter 1 + 1, level)))

let rec repr t =
  match t with
  | Var ({ contents = Link u } as r) ->
      let v = repr u in
      r := Link v;
      v
  | _ -> t

let rec spines t =
  match repr t with List elt | Tree elt -> 1 + spines elt | _ -> 0

let rec max_list_depth t =
  match repr t with
  | Int | Bool | Var _ -> 0
  | (List elt | Tree elt) as l -> max (spines l) (max_list_depth elt)
  | Prod (a, b) | Arrow (a, b) -> max (max_list_depth a) (max_list_depth b)

let owns_cells t =
  match repr t with
  | Int | Bool -> false
  | List _ | Tree _ | Prod _ | Arrow _ | Var _ -> true

let rec arity t =
  match repr t with
  | Arrow (_, b) -> 1 + arity b
  | List elt | Tree elt -> arity elt
  | Int | Bool | Prod _ | Var _ -> 0

type shape = Sbase | Sarrow of t * t | Sprod of t * t

let rec shape t =
  match repr t with
  | Int | Bool | Var _ -> Sbase
  | List elt | Tree elt -> shape elt
  | Prod (a, b) -> Sprod (a, b)
  | Arrow (a, b) -> Sarrow (a, b)

let rec result_ty t n =
  if n = 0 then repr t
  else
    match repr t with
    | Arrow (_, b) -> result_ty b (n - 1)
    | other ->
        invalid_arg
          (Printf.sprintf "Ty.result_ty: %d more arguments requested of a non-arrow (%s)" n
             (match other with
             | Int -> "int"
             | Bool -> "bool"
             | List _ -> "list"
             | Tree _ -> "tree"
             | Prod _ -> "pair"
             | Var _ -> "tyvar"
             | Arrow _ -> assert false))

let rec arg_tys t n =
  if n = 0 then []
  else
    match repr t with
    | Arrow (a, b) -> a :: arg_tys b (n - 1)
    | _ -> invalid_arg "Ty.arg_tys: not enough arrows"

let rec equal a b =
  match (repr a, repr b) with
  | Int, Int | Bool, Bool -> true
  | List x, List y | Tree x, Tree y -> equal x y
  | Prod (a1, b1), Prod (a2, b2) | Arrow (a1, b1), Arrow (a2, b2) ->
      equal a1 a2 && equal b1 b2
  | Var r1, Var r2 -> r1 == r2
  | (Int | Bool | List _ | Tree _ | Prod _ | Arrow _ | Var _), _ -> false

let rec contains_var t =
  match repr t with
  | Int | Bool -> false
  | Var _ -> true
  | List e | Tree e -> contains_var e
  | Prod (a, b) | Arrow (a, b) -> contains_var a || contains_var b

let pp ppf t =
  let names = Hashtbl.create 8 in
  let next = ref 0 in
  let name_of id =
    match Hashtbl.find_opt names id with
    | Some n -> n
    | None ->
        let n =
          if !next < 26 then Printf.sprintf "'%c" (Char.chr (Char.code 'a' + !next))
          else Printf.sprintf "'t%d" !next
        in
        incr next;
        Hashtbl.add names id n;
        n
  in
  (* precedence: 0 arrow, 1 product, 2 list argument / atom *)
  let rec go prec ppf t =
    match repr t with
    | Int -> Format.pp_print_string ppf "int"
    | Bool -> Format.pp_print_string ppf "bool"
    | Var { contents = Unbound (id, _) } -> Format.pp_print_string ppf (name_of id)
    | Var { contents = Link _ } -> assert false
    | List elt ->
        if prec > 2 then Format.fprintf ppf "(%a list)" (go 2) elt
        else Format.fprintf ppf "%a list" (go 2) elt
    | Tree elt ->
        if prec > 2 then Format.fprintf ppf "(%a tree)" (go 2) elt
        else Format.fprintf ppf "%a tree" (go 2) elt
    | Prod (a, b) ->
        if prec > 1 then Format.fprintf ppf "(%a * %a)" (go 2) a (go 2) b
        else Format.fprintf ppf "%a * %a" (go 2) a (go 2) b
    | Arrow (a, b) ->
        if prec > 0 then Format.fprintf ppf "(%a -> %a)" (go 1) a (go 0) b
        else Format.fprintf ppf "%a -> %a" (go 1) a (go 0) b
  in
  go 0 ppf t

let to_string t = Format.asprintf "%a" pp t

(* One tag per constructor in pre-order, so the string is a prefix code;
   variables are numbered by first occurrence in the same left-to-right
   order [pp] names them, so two types get one key exactly when they
   print alike. *)
let key t =
  let b = Buffer.create 32 in
  let vars = ref [] in
  let rec go t =
    match repr t with
    | Int -> Buffer.add_char b 'i'
    | Bool -> Buffer.add_char b 'b'
    | List e ->
        Buffer.add_char b 'l';
        go e
    | Tree e ->
        Buffer.add_char b 't';
        go e
    | Prod (x, y) ->
        Buffer.add_char b '*';
        go x;
        go y
    | Arrow (x, y) ->
        Buffer.add_char b '>';
        go x;
        go y
    | Var { contents = Unbound (id, _) } ->
        let n =
          match List.assoc_opt id !vars with
          | Some n -> n
          | None ->
              let n = List.length !vars in
              vars := (id, n) :: !vars;
              n
        in
        Buffer.add_char b '\'';
        Buffer.add_string b (string_of_int n)
    | Var { contents = Link _ } -> assert false
  in
  go t;
  Buffer.contents b

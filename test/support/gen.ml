(* Shared random-program generators for the test suites.

   [gen_def] produces a structurally recursive definition
     f l = if null l then <base> else <step>
   over int lists, where <step> may use l, car l, cdr l and f (cdr l);
   recursion is only on (cdr l), so evaluation always terminates.
   Negative literals and compound leaves are parenthesized so that the
   generated text reparses as intended. *)

open QCheck.Gen

let lit = map (fun i -> Printf.sprintf "(%d)" i) small_signed_int

let rec gen_int n =
  if n <= 1 then frequency [ (2, lit); (2, return "(car l)") ]
  else
    frequency
      [
        (2, lit);
        (2, return "(car l)");
        ( 2,
          let* a = gen_int (n / 2) in
          let* b = gen_int (n / 2) in
          return (Printf.sprintf "(%s + %s)" a b) );
      ]

let gen_bool n =
  if n <= 1 then oneofl [ "true"; "false"; "(null (cdr l))" ]
  else
    let* a = gen_int (n / 2) in
    let* b = gen_int (n / 2) in
    oneofl
      [ "(null (cdr l))"; Printf.sprintf "(%s = %s)" a b; Printf.sprintf "(%s < %s)" a b ]

let rec gen_list n =
  if n <= 1 then oneofl [ "nil"; "l"; "(cdr l)"; "(f (cdr l))" ]
  else
    frequency
      [
        (1, oneofl [ "nil"; "l"; "(cdr l)"; "(f (cdr l))" ]);
        ( 3,
          let* hd = gen_int (n / 3) in
          let* tl = gen_list (n / 2) in
          return (Printf.sprintf "(cons %s %s)" hd tl) );
        ( 1,
          let* c = gen_bool (n / 3) in
          let* a = gen_list (n / 3) in
          let* b = gen_list (n / 3) in
          return (Printf.sprintf "(if %s then %s else %s)" c a b) );
      ]

let gen_base n =
  (* l is nil in the base branch: car l / cdr l would crash *)
  if n <= 1 then oneofl [ "nil"; "l" ]
  else
    let* x = lit in
    oneofl [ "nil"; "l"; Printf.sprintf "(cons %s nil)" x ]

let gen_def =
  let* nb = int_range 1 4 in
  let* ns = int_range 1 12 in
  let* base = gen_base nb in
  let* step = gen_list ns in
  return (Printf.sprintf "f l = if null l then %s else %s" base step)

let gen_input = list_size (int_range 0 6) small_signed_int

let input_src input = "[" ^ String.concat "," (List.map string_of_int input) ^ "]"

let gen_program =
  (* a complete program calling f on a literal *)
  let* def = gen_def in
  let* input = gen_input in
  return (Printf.sprintf "letrec %s in f %s" def (input_src input))

(* Random structurally recursive functions over (int * int) lists:
     f l = if null l then <base> else <step>
   exercising pair construction and projections. *)

let rec gen_pint n =
  if n <= 1 then
    frequency [ (2, lit); (1, return "(fst (car l))"); (1, return "(snd (car l))") ]
  else
    frequency
      [
        (2, lit);
        (1, return "(fst (car l))");
        (1, return "(snd (car l))");
        ( 2,
          let* a = gen_pint (n / 2) in
          let* b = gen_pint (n / 2) in
          return (Printf.sprintf "(%s + %s)" a b) );
      ]

let gen_pelem n =
  frequency
    [
      (2, return "(car l)");
      ( 2,
        let* a = gen_pint (n / 2) in
        let* b = gen_pint (n / 2) in
        return (Printf.sprintf "(mkpair %s %s)" a b) );
    ]

let gen_pbool n =
  if n <= 1 then oneofl [ "true"; "false"; "(null (cdr l))" ]
  else
    let* a = gen_pint (n / 2) in
    let* b = gen_pint (n / 2) in
    oneofl [ "(null (cdr l))"; Printf.sprintf "(%s = %s)" a b ]

let rec gen_plist n =
  if n <= 1 then oneofl [ "nil"; "l"; "(cdr l)"; "(f (cdr l))" ]
  else
    frequency
      [
        (1, oneofl [ "nil"; "l"; "(cdr l)"; "(f (cdr l))" ]);
        ( 3,
          let* hd = gen_pelem (n / 3) in
          let* tl = gen_plist (n / 2) in
          return (Printf.sprintf "(cons %s %s)" hd tl) );
        ( 1,
          let* c = gen_pbool (n / 3) in
          let* a = gen_plist (n / 3) in
          let* b = gen_plist (n / 3) in
          return (Printf.sprintf "(if %s then %s else %s)" c a b) );
      ]

let gen_pbase n =
  if n <= 1 then oneofl [ "nil"; "l" ]
  else
    let* x = lit in
    let* y = lit in
    oneofl [ "nil"; "l"; Printf.sprintf "(cons (mkpair %s %s) nil)" x y ]

let gen_pair_def =
  let* nb = int_range 1 4 in
  let* ns = int_range 1 12 in
  let* base = gen_pbase nb in
  let* step = gen_plist ns in
  return (Printf.sprintf "f l = if null l then %s else %s" base step)

let pair_input_src input =
  "["
  ^ String.concat ","
      (List.map (fun (a, b) -> Printf.sprintf "mkpair (%d) (%d)" a b) input)
  ^ "]"

let gen_pair_input = list_size (int_range 0 5) (pair small_signed_int small_signed_int)

(* Random structurally recursive functions over int trees:
     f t = if isleaf t then <base> else <step>
   with recursion on (left t)/(right t) only. *)

let rec gen_tint n =
  if n <= 1 then frequency [ (2, lit); (2, return "(label t)") ]
  else
    frequency
      [
        (2, lit);
        (2, return "(label t)");
        ( 2,
          let* a = gen_tint (n / 2) in
          let* b = gen_tint (n / 2) in
          return (Printf.sprintf "(%s + %s)" a b) );
      ]

let gen_tbool n =
  if n <= 1 then oneofl [ "true"; "false"; "(isleaf (left t))" ]
  else
    let* a = gen_tint (n / 2) in
    let* b = gen_tint (n / 2) in
    oneofl [ "(isleaf (left t))"; Printf.sprintf "(%s < %s)" a b ]

let rec gen_tree n =
  if n <= 1 then oneofl [ "leaf"; "t"; "(left t)"; "(right t)"; "(f (left t))"; "(f (right t))" ]
  else
    frequency
      [
        (1, oneofl [ "leaf"; "t"; "(left t)"; "(right t)"; "(f (left t))"; "(f (right t))" ]);
        ( 3,
          let* l = gen_tree (n / 3) in
          let* x = gen_tint (n / 3) in
          let* r = gen_tree (n / 3) in
          return (Printf.sprintf "(node %s %s %s)" l x r) );
        ( 1,
          let* c = gen_tbool (n / 3) in
          let* a = gen_tree (n / 3) in
          let* b = gen_tree (n / 3) in
          return (Printf.sprintf "(if %s then %s else %s)" c a b) );
      ]

let gen_tbase n =
  if n <= 1 then oneofl [ "leaf"; "t" ]
  else
    let* x = lit in
    oneofl [ "leaf"; "t"; Printf.sprintf "(node leaf %s leaf)" x ]

let gen_tree_def =
  let* nb = int_range 1 4 in
  let* ns = int_range 1 10 in
  let* base = gen_tbase nb in
  let* step = gen_tree ns in
  return (Printf.sprintf "f t = if isleaf t then %s else %s" base step)

(* a random bst-ish input built from tinsert chains *)
let tree_input_src input =
  List.fold_left (fun acc n -> Printf.sprintf "(node leaf (%d) %s)" n acc) "leaf" input

(* ---- complete programs over every shape the machine supports ------------- *)

let gen_pair_program =
  (* a complete program folding f over a literal (int * int) list *)
  let* def = gen_pair_def in
  let* input = gen_pair_input in
  return (Printf.sprintf "letrec %s in f %s" def (pair_input_src input))

let gen_tree_program =
  (* a complete program folding f over a literal left-spine int tree *)
  let* def = gen_tree_def in
  let* input = gen_input in
  return (Printf.sprintf "letrec %s in f %s" def (tree_input_src input))

let gen_any_program =
  (* the union the soundness harness draws from: int-list, pair-list and
     tree recursions, weighted towards the richer list programs *)
  frequency [ (2, gen_program); (1, gen_pair_program); (1, gen_tree_program) ]

(* Random curried definitions over int lists with an accumulator and,
   sometimes, an int parameter:
     f l a = if null l then <base> else <step>
     f l a n = if null l then <base> else <step>
   The recursive call passes (cdr l) and fresh accumulator (and int)
   expressions, so evaluation still terminates.  Applying such a
   definition to its first argument yields a function: the arrow-valued
   intermediate results [gen_def]'s one-parameter corpus never reaches. *)

let rec gen_cint ~ints n =
  let leaves =
    [ (2, lit); (2, return "(car l)") ] @ if ints then [ (2, return "n") ] else []
  in
  if n <= 1 then frequency leaves
  else
    frequency
      (( 2,
         let* a = gen_cint ~ints (n / 2) in
         let* b = gen_cint ~ints (n / 2) in
         return (Printf.sprintf "(%s + %s)" a b) )
      :: leaves)

let gen_cbool ~ints n =
  if n <= 1 then oneofl [ "true"; "false"; "(null (cdr l))"; "(null a)" ]
  else
    let* a = gen_cint ~ints (n / 2) in
    let* b = gen_cint ~ints (n / 2) in
    oneofl
      [ "(null a)"; Printf.sprintf "(%s = %s)" a b; Printf.sprintf "(%s < %s)" a b ]

(* the accumulator passed down: a list built from what is in scope *)
let gen_acc ~ints n =
  frequency
    [
      (3, oneofl [ "a"; "nil"; "l"; "(cdr l)" ]);
      ( 2,
        let* x = gen_cint ~ints (n / 3) in
        oneofl [ Printf.sprintf "(cons %s a)" x; Printf.sprintf "(cons %s (cdr l))" x ] );
    ]

let gen_call ~ints n =
  let* acc = gen_acc ~ints n in
  if ints then
    let* i = gen_cint ~ints (n / 3) in
    return (Printf.sprintf "(f (cdr l) %s %s)" acc i)
  else return (Printf.sprintf "(f (cdr l) %s)" acc)

let rec gen_clist ~ints n =
  let leaf = oneofl [ "nil"; "l"; "(cdr l)"; "a" ] in
  if n <= 1 then frequency [ (3, leaf); (1, gen_call ~ints n) ]
  else
    frequency
      [
        (1, leaf);
        (2, gen_call ~ints n);
        ( 3,
          let* hd = gen_cint ~ints (n / 3) in
          let* tl = gen_clist ~ints (n / 2) in
          return (Printf.sprintf "(cons %s %s)" hd tl) );
        ( 1,
          let* c = gen_cbool ~ints (n / 3) in
          let* x = gen_clist ~ints (n / 3) in
          let* y = gen_clist ~ints (n / 3) in
          return (Printf.sprintf "(if %s then %s else %s)" c x y) );
      ]

let gen_cbase ~ints =
  (* l is nil in the base branch: car l / cdr l would crash *)
  let* x = if ints then oneof [ lit; return "n" ] else lit in
  oneofl [ "nil"; "l"; "a"; Printf.sprintf "(cons %s a)" x ]

let gen_curried_def =
  let* ints = bool in
  let* ns = int_range 1 12 in
  let* base = gen_cbase ~ints in
  let* step = gen_clist ~ints ns in
  return
    (Printf.sprintf "f l a%s = if null l then %s else %s"
       (if ints then " n" else "")
       base step)

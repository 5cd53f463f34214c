(* Tests for the nml front end: lexer, parser, pretty printer, types,
   inference, and the standard semantics. *)

module T = Nml.Token
module L = Nml.Lexer
module A = Nml.Ast
module P = Nml.Parser
module Pretty = Nml.Pretty
module Ty = Nml.Ty
module Infer = Nml.Infer
module Tast = Nml.Tast
module Eval = Nml.Eval
module Surface = Nml.Surface
module Ex = Nml.Examples


let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---- lexer ------------------------------------------------------------- *)

let tokens_str src = String.concat " " (List.map T.to_string (L.tokens src))

let lexer_tests =
  let case name src expected =
    Alcotest.test_case name `Quick (fun () -> checks name expected (tokens_str src))
  in
  let error_case name src =
    Alcotest.test_case name `Quick (fun () ->
        match L.tokens src with
        | exception L.Error _ -> ()
        | _ -> Alcotest.fail "expected a lexer error")
  in
  [
    case "integers" "0 42 007" "0 42 7 <eof>";
    case "identifiers" "x foo foo_bar x1 x'" "x foo foo_bar x1 x' <eof>";
    case "keywords" "if then else let letrec in fun true false nil"
      "if then else let letrec in fun true false nil <eof>";
    case "bool-ops" "and or not div mod" "and or not div mod <eof>";
    case "operators" "+ - * = <> < <= > >= :: -> ." "+ - * = <> < <= > >= :: -> . <eof>";
    case "brackets" "( ) [ ] , ;" "( ) [ ] , ; <eof>";
    case "arrow-vs-minus" "a->b a - >b" "a -> b a - > b <eof>";
    case "cons-op" "1::2::nil" "1 :: 2 :: nil <eof>";
    case "lambda-backslash" "\\x. x" "lambda x . x <eof>";
    case "line-comment" "1 -- comment here\n2" "1 2 <eof>";
    case "line-comment-eof" "1 -- no newline" "1 <eof>";
    case "block-comment" "1 (* inside *) 2" "1 2 <eof>";
    case "nested-comment" "1 (* a (* b *) c *) 2" "1 2 <eof>";
    case "comment-with-minus" "1 (* -- *) 2" "1 2 <eof>";
    case "empty" "" "<eof>";
    case "whitespace-only" "  \t\n  " "<eof>";
    case "no-space-needed" "f(x)" "f ( x ) <eof>";
    error_case "unterminated-comment" "1 (* oops";
    error_case "stray-colon" "a : b";
    error_case "stray-char" "a # b";
    error_case "huge-int" "99999999999999999999999999";
    Alcotest.test_case "error-texts" `Quick (fun () ->
        (* a NUL byte is a character like any other, not the end of input *)
        List.iter
          (fun (src, expected) ->
            match L.tokens ~file:"f" src with
            | exception L.Error (loc, msg) ->
                checks src expected (Nml.Loc.to_string loc ^ " " ^ msg)
            | _ -> Alcotest.fail ("expected a lexer error on " ^ String.escaped src))
          [
            ("a\000b", "f:1.2 unexpected character '\\000'");
            ("a\n  #", "f:2.3 unexpected character '#'");
            ("1 (* (* *)", "f:1.3-1.11 unterminated comment");
            ("x :y", "f:1.3-1.4 expected '::' (single ':' is not a token)");
            ("99999999999999999999", "f:1.1-1.21 integer literal 99999999999999999999 is out of range");
          ]);
    Alcotest.test_case "locations" `Quick (fun () ->
        let sps = L.tokenize ~file:"f" "ab\n  cd" in
        match sps with
        | [ a; b; _eof ] ->
            checks "loc a" "f:1.1-1.3" (Nml.Loc.to_string a.L.loc);
            checks "loc b" "f:2.3-2.5" (Nml.Loc.to_string b.L.loc)
        | _ -> Alcotest.fail "expected two tokens");
  ]

(* ---- parser ------------------------------------------------------------ *)

let parse = P.parse
let roundtrip e = P.parse (Pretty.to_string e)

let parser_tests =
  let case name src expected_pp =
    Alcotest.test_case name `Quick (fun () ->
        checks name expected_pp (Pretty.to_string (parse src)))
  in
  let equal_case name src1 src2 =
    Alcotest.test_case name `Quick (fun () ->
        checkb name true (A.equal (parse src1) (parse src2)))
  in
  let error_case name src =
    Alcotest.test_case name `Quick (fun () ->
        match parse src with
        | exception P.Error _ -> ()
        | _ -> Alcotest.fail "expected a parse error")
  in
  [
    case "int" "42" "42";
    case "negative-int" "-42" "-42";
    case "bool" "true" "true";
    case "nil" "nil" "nil";
    case "var" "x" "x";
    case "application" "f x y" "f x y";
    case "application-assoc" "(f x) y" "f x y";
    case "paren-arg" "f (g x)" "f (g x)";
    case "add" "1 + 2 + 3" "1 + 2 + 3";
    case "mul-binds-tighter" "1 + 2 * 3" "1 + 2 * 3";
    case "sub-left-assoc" "1 - 2 - 3" "1 - 2 - 3";
    case "parens-kept-when-needed" "(1 - 2) * 3" "(1 - 2) * 3";
    case "cmp" "1 < 2" "1 < 2";
    case "cons-right-assoc" "1 :: 2 :: nil" "[1, 2]";
    case "cons-partial" "1 :: x" "1 :: x";
    case "list-literal" "[1, 2, 3]" "[1, 2, 3]";
    case "list-semicolons" "[1; 2; 3]" "[1, 2, 3]";
    case "empty-list" "[]" "nil";
    case "nested-list" "[[1], [2, 3]]" "[[1], [2, 3]]";
    case "if" "if true then 1 else 2" "if true then 1 else 2";
    case "lambda-paper" "lambda(x). x" "fun x -> x";
    case "lambda-backslash" "\\x. x + 1" "fun x -> x + 1";
    case "fun-multi" "fun x y -> x" "fun x y -> x";
    case "and-or" "true and false or true" "true and false or true";
    case "not" "not true" "not true";
    case "prim-car" "car [1]" "car [1]";
    case "prim-null" "null nil" "null nil";
    case "unary-minus-expr" "-(x) + 1" "0 - x + 1";
    equal_case "let-sugar" "let x = 1 in x + 1" "(lambda(x). x + 1) 1";
    equal_case "let-params" "let f a b = a in f" "(lambda(f). f) (fun a b -> a)";
    equal_case "letrec-params" "letrec f x = x in f" "letrec f = lambda(x). x in f";
    equal_case "app-binds-tighter-than-cons" "car x :: cdr x" "(car x) :: (cdr x)";
    equal_case "cmp-of-sums" "x + 1 = y - 2" "(x + 1) = (y - 2)";
    equal_case "minus-number-arg" "f - 1" "(f) - (1)";
    Alcotest.test_case "letrec-structure" `Quick (fun () ->
        match parse "letrec f x = g x; g y = f y in f 1" with
        | A.Letrec (_, [ ("f", A.Lam _); ("g", A.Lam _) ], A.App _) -> ()
        | _ -> Alcotest.fail "unexpected structure");
    Alcotest.test_case "letrec-mutual-scope" `Quick (fun () ->
        (* g is known while parsing f's body: resolves as Var, not prim *)
        match parse "letrec f x = g x; g y = y in f" with
        | A.Letrec (_, [ (_, A.Lam (_, _, A.App (_, A.Var (_, "g"), _))); _ ], _) -> ()
        | _ -> Alcotest.fail "g should be a variable");
    Alcotest.test_case "prim-shadowing" `Quick (fun () ->
        match parse "lambda(car). car x" with
        | A.Lam (_, "car", A.App (_, A.Var (_, "car"), _)) -> ()
        | _ -> Alcotest.fail "bound car must be a variable");
    Alcotest.test_case "prim-unshadowed" `Quick (fun () ->
        match parse "car x" with
        | A.App (_, A.Prim (_, A.Car), _) -> ()
        | _ -> Alcotest.fail "free car must be the primitive");
    Alcotest.test_case "trailing-semi-in-letrec" `Quick (fun () ->
        match parse "letrec f x = x; in f 1" with
        | A.Letrec (_, [ ("f", _) ], _) -> ()
        | _ -> Alcotest.fail "unexpected structure");
    error_case "unclosed-paren" "(1 + 2";
    error_case "missing-in" "letrec f x = x f 1";
    error_case "empty-fun" "fun -> 1";
    error_case "trailing-tokens" "1 + 2 3 ) (";
    error_case "if-missing-else" "if true then 1";
    error_case "list-unterminated" "[1, 2";
    error_case "binding-without-eq" "letrec f x in f";
    Alcotest.test_case "list-of-application" `Quick (fun () ->
        (* [f x] is a one-element list whose element is an application *)
        checkb "equal" true (A.equal (parse "[f x]") (parse "cons (f x) nil")));
  ]

(* ---- pretty round-trips ------------------------------------------------ *)

let pretty_tests =
  let rt name src =
    Alcotest.test_case name `Quick (fun () ->
        let e = parse src in
        checkb name true (A.equal e (roundtrip e)))
  in
  List.map (fun (name, def) -> rt ("roundtrip-" ^ name) (Ex.wrap [ def ] "0")) Ex.all_defs
  @ [
      rt "roundtrip-ps-program" Ex.partition_sort_program;
      rt "roundtrip-map-pair" Ex.map_pair_program;
      rt "roundtrip-rev" Ex.rev_program;
      rt "roundtrip-deep-nest" "[[[1]]] :: [[[2]], [[3]]] :: nil";
      rt "roundtrip-ho" "fun f g x -> f (g x) (fun y -> g y)";
      rt "roundtrip-cond-chain" "if a then if b then 1 else 2 else 3";
      rt "roundtrip-neg" "0 - 1 - (0 - 2)";
      Alcotest.test_case "flat-printing-shows-cons" `Quick (fun () ->
          let s = Format.asprintf "%a" Pretty.pp_flat (parse "[1, 2]") in
          checkb "has ::" true
            (String.length s >= 2
            && (let found = ref false in
                String.iteri (fun i c -> if c = ':' && i + 1 < String.length s && s.[i + 1] = ':' then found := true) s;
                !found)));
    ]

(* ---- types ------------------------------------------------------------- *)

let ty_tests =
  let ilist = Ty.List Ty.Int in
  let iilist = Ty.List ilist in
  [
    Alcotest.test_case "spines" `Quick (fun () ->
        checki "int" 0 (Ty.spines Ty.Int);
        checki "bool" 0 (Ty.spines Ty.Bool);
        checki "int list" 1 (Ty.spines ilist);
        checki "int list list" 2 (Ty.spines iilist);
        checki "fun" 0 (Ty.spines (Ty.Arrow (ilist, ilist)));
        checki "fun list" 1 (Ty.spines (Ty.List (Ty.Arrow (Ty.Int, Ty.Int)))));
    Alcotest.test_case "arity" `Quick (fun () ->
        checki "int" 0 (Ty.arity Ty.Int);
        checki "i->i" 1 (Ty.arity (Ty.Arrow (Ty.Int, Ty.Int)));
        checki "i->i->i" 2 (Ty.arity (Ty.Arrow (Ty.Int, Ty.Arrow (Ty.Int, Ty.Int))));
        (* arity of a list is the arity of its element (Definition 2) *)
        checki "(i->i) list" 1 (Ty.arity (Ty.List (Ty.Arrow (Ty.Int, Ty.Int))));
        checki "returns list" 1 (Ty.arity (Ty.Arrow (Ty.Int, ilist))));
    Alcotest.test_case "shape-collapses-lists" `Quick (fun () ->
        (match Ty.shape iilist with
        | Ty.Sbase -> ()
        | Ty.Sarrow _ | Ty.Sprod _ -> Alcotest.fail "int list list should be base-shaped");
        (match Ty.shape (Ty.List (Ty.Arrow (Ty.Int, Ty.Int))) with
        | Ty.Sarrow _ -> ()
        | Ty.Sbase | Ty.Sprod _ ->
            Alcotest.fail "(int->int) list should be arrow-shaped");
        match Ty.shape (Ty.List (Ty.Prod (Ty.Int, Ty.Int))) with
        | Ty.Sprod _ -> ()
        | Ty.Sbase | Ty.Sarrow _ ->
            Alcotest.fail "(int * int) list should be product-shaped");
    Alcotest.test_case "max-list-depth" `Quick (fun () ->
        checki "simple" 2 (Ty.max_list_depth (Ty.Arrow (iilist, ilist)));
        checki "inner" 3 (Ty.max_list_depth (Ty.Arrow (Ty.List iilist, Ty.Int)));
        checki "none" 0 (Ty.max_list_depth (Ty.Arrow (Ty.Int, Ty.Bool))));
    Alcotest.test_case "pp" `Quick (fun () ->
        checks "list" "int list list" (Ty.to_string iilist);
        checks "arrow" "int -> int -> int"
          (Ty.to_string (Ty.Arrow (Ty.Int, Ty.Arrow (Ty.Int, Ty.Int))));
        checks "arrow-left" "(int -> int) -> int"
          (Ty.to_string (Ty.Arrow (Ty.Arrow (Ty.Int, Ty.Int), Ty.Int)));
        checks "fun-list" "(int -> int) list"
          (Ty.to_string (Ty.List (Ty.Arrow (Ty.Int, Ty.Int)))));
    Alcotest.test_case "result-and-args" `Quick (fun () ->
        let t = Ty.Arrow (Ty.Int, Ty.Arrow (ilist, iilist)) in
        checkb "result" true (Ty.equal iilist (Ty.result_ty t 2));
        checkb "args" true (List.for_all2 Ty.equal [ Ty.Int; ilist ] (Ty.arg_tys t 2)));
  ]

(* ---- inference --------------------------------------------------------- *)

let scheme_str prog name = Format.asprintf "%a" Infer.pp_scheme (Infer.def_scheme prog name)

let infer_program_of_defs defs = Infer.infer_program (Surface.of_string (Ex.wrap defs "0"))

let infer_tests =
  let scheme_case name defs fname expected =
    Alcotest.test_case name `Quick (fun () ->
        checks name expected (scheme_str (infer_program_of_defs defs) fname))
  in
  let error_case name src =
    Alcotest.test_case name `Quick (fun () ->
        match Infer.infer_program (Surface.of_string src) with
        | exception Infer.Error _ -> ()
        | _ -> Alcotest.fail "expected a type error")
  in
  [
    scheme_case "append" [ Ex.append_def ] "append" "'a list -> 'a list -> 'a list";
    scheme_case "split" [ Ex.split_def ] "split"
      "int -> int list -> int list -> int list -> int list list";
    scheme_case "ps" [ Ex.append_def; Ex.split_def; Ex.ps_def ] "ps" "int list -> int list";
    scheme_case "map" [ Ex.map_def ] "map" "('a -> 'b) -> 'a list -> 'b list";
    scheme_case "length" [ Ex.length_def ] "length" "'a list -> int";
    scheme_case "id" [ Ex.id_def ] "id" "'a -> 'a";
    scheme_case "konst" [ Ex.const_def ] "konst" "'a -> 'b -> 'a";
    scheme_case "compose" [ Ex.compose_def ] "compose"
      "('a -> 'b) -> ('c -> 'a) -> 'c -> 'b";
    scheme_case "foldr" [ Ex.foldr_def ] "foldr" "('a -> 'b -> 'b) -> 'b -> 'a list -> 'b";
    scheme_case "rev" [ Ex.append_def; Ex.rev_def ] "rev" "'a list -> 'a list";
    scheme_case "concat" [ Ex.append_def; Ex.concat_def ] "concat" "'a list list -> 'a list";
    scheme_case "create_list" [ Ex.create_list_def ] "create_list" "int -> int list";
    scheme_case "filter" [ Ex.filter_def ] "filter" "('a -> bool) -> 'a list -> 'a list";
    scheme_case "zip" [ Ex.zip_def ] "zip" "'a list -> 'b list -> ('a * 'b) list";
    scheme_case "fsts" [ Ex.unzip_fsts_def ] "fsts" "('a * 'b) list -> 'a list";
    scheme_case "snds" [ Ex.unzip_snds_def ] "snds" "('a * 'b) list -> 'b list";
    scheme_case "swap" [ Ex.swap_def ] "swap" "'a * 'b -> 'b * 'a";
    scheme_case "assoc" [ Ex.assoc_def ] "assoc" "'a -> int -> (int * 'a) list -> 'a";
    scheme_case "tmap" [ Ex.tmap_def ] "tmap" "('a -> 'b) -> 'a tree -> 'b tree";
    scheme_case "tinsert" [ Ex.tinsert_def ] "tinsert" "int -> int tree -> int tree";
    scheme_case "tsum" [ Ex.tsum_def ] "tsum" "int tree -> int";
    scheme_case "mirror" [ Ex.mirror_def ] "mirror" "'a tree -> 'a tree";
    scheme_case "flatten" [ Ex.append_def; Ex.flatten_def ] "flatten"
      "'a tree -> 'a list";
    Alcotest.test_case "main-type" `Quick (fun () ->
        let p = Infer.infer_program (Surface.of_string Ex.partition_sort_program) in
        checks "ps main" "int list" (Ty.to_string (Infer.main_ground p).Tast.ty));
    Alcotest.test_case "simplest-instance" `Quick (fun () ->
        let p = infer_program_of_defs [ Ex.map_def ] in
        checks "map inst" "(int -> int) -> int list -> int list"
          (Ty.to_string (Infer.simplest_instance p "map")));
    Alcotest.test_case "instantiate-at" `Quick (fun () ->
        let p = infer_program_of_defs [ Ex.append_def ] in
        let inst = Ty.Arrow (Ty.List (Ty.List Ty.Int),
                             Ty.Arrow (Ty.List (Ty.List Ty.Int), Ty.List (Ty.List Ty.Int))) in
        let t = Infer.instantiate_def p "append" (Some inst) in
        checks "append@2" "int list list -> int list list -> int list list"
          (Ty.to_string t.Tast.ty));
    Alcotest.test_case "instantiate-not-an-instance" `Quick (fun () ->
        let p = infer_program_of_defs [ Ex.length_def ] in
        match Infer.instantiate_def p "length" (Some Ty.Int) with
        | exception Infer.Error _ -> ()
        | _ -> Alcotest.fail "expected a type error");
    Alcotest.test_case "car-spine-annotation" `Quick (fun () ->
        (* car over int list list is car^2; over int list is car^1 *)
        let e = Infer.infer_expr (parse "lambda(x). car (car x)") in
        Tast.default_ground e;
        let anns = ref [] in
        let rec walk (t : Tast.texpr) =
          (match t.Tast.desc with
          | Tast.Prim Nml.Ast.Car -> anns := Tast.car_spines t :: !anns
          | _ -> ());
          match t.Tast.desc with
          | Tast.App (f, a) -> walk f; walk a
          | Tast.Lam (_, b) -> walk b
          | _ -> ()
        in
        walk e;
        Alcotest.(check (list int)) "annotations" [ 1; 2 ] (List.sort compare !anns));
    Alcotest.test_case "letrec-polymorphic-two-uses" `Quick (fun () ->
        (* length used at int list and at int list list *)
        let src = Ex.wrap [ Ex.length_def ] "length [1] + length [[1]]" in
        let p = Infer.infer_program (Surface.of_string src) in
        checks "main" "int" (Ty.to_string (Infer.main_ground p).Tast.ty));
    Alcotest.test_case "nested-letrec-monomorphic" `Quick (fun () ->
        (* nested letrec is not generalized: two instances clash *)
        let src = "letrec f x = (letrec g y = y in (g 1) + (if g true then 1 else 0)) in f" in
        match Infer.infer_program (Surface.of_string src) with
        | exception Infer.Error _ -> ()
        | _ -> Alcotest.fail "expected a type error (nested letrec is monomorphic)");
    error_case "unbound" "letrec f x = y in f";
    error_case "occurs-check" "letrec f x = x x in f";
    error_case "branch-mismatch" "if true then 1 else false";
    error_case "cond-not-bool" "if 1 then 2 else 3";
    error_case "arith-on-list" "1 + [2]";
    error_case "cons-mismatch" "cons 1 [true]";
    error_case "apply-non-function" "1 2";
    error_case "duplicate-letrec" "letrec f x = x; f y = y in f";
    error_case "car-of-int" "car 1";
    error_case "fst-of-int" "fst 1";
    error_case "label-of-list" "label [1]";
    error_case "node-arity-type" "node 1 2 3";
    error_case "pair-vs-list" "car (mkpair 1 2)";
    Alcotest.test_case "prod-type-printing" `Quick (fun () ->
        checks "prod" "int * bool" (Ty.to_string (Ty.Prod (Ty.Int, Ty.Bool)));
        checks "prod-list" "(int * bool) list"
          (Ty.to_string (Ty.List (Ty.Prod (Ty.Int, Ty.Bool))));
        checks "list-in-prod" "int list * bool"
          (Ty.to_string (Ty.Prod (Ty.List Ty.Int, Ty.Bool)));
        checks "prod-arrow" "int * bool -> int"
          (Ty.to_string (Ty.Arrow (Ty.Prod (Ty.Int, Ty.Bool), Ty.Int)));
        checks "nested-prod" "int * (bool * int)"
          (Ty.to_string (Ty.Prod (Ty.Int, Ty.Prod (Ty.Bool, Ty.Int))));
        checks "tree" "int tree" (Ty.to_string (Ty.Tree Ty.Int));
        checks "tree-of-list" "int list tree" (Ty.to_string (Ty.Tree (Ty.List Ty.Int))));
    Alcotest.test_case "tree-spines" `Quick (fun () ->
        checki "int tree" 1 (Ty.spines (Ty.Tree Ty.Int));
        checki "int list tree" 2 (Ty.spines (Ty.Tree (Ty.List Ty.Int)));
        checki "tree of trees" 2 (Ty.spines (Ty.Tree (Ty.Tree Ty.Int))));
  ]

(* ---- evaluation -------------------------------------------------------- *)

let eval_str src = Format.asprintf "%a" Eval.pp_value (Eval.run (Surface.of_string src))

let eval_tests =
  let case name src expected =
    Alcotest.test_case name `Quick (fun () -> checks name expected (eval_str src))
  in
  let error_case name src =
    Alcotest.test_case name `Quick (fun () ->
        match eval_str src with
        | exception Eval.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected a runtime error")
  in
  [
    case "arith" "1 + 2 * 3 - 4" "3";
    case "div-mod" "(17 div 5) :: (17 mod 5) :: nil" "[3, 2]";
    case "cmp" "[1 < 2, 2 <= 2, 3 > 4, 4 >= 5, 1 = 1, 1 <> 1]"
      "[true, true, false, false, true, false]";
    case "bool-ops" "[true and false, true or false, not true]" "[false, true, false]";
    case "if" "if 1 < 2 then 10 else 20" "10";
    case "list-ops" "car [1, 2] + car (cdr [1, 2])" "3";
    case "null" "[null nil, null [1]]" "[true, false]";
    case "let" "let x = 5 in x * x" "25";
    case "closure-capture" "let x = 1 in (fun y -> x + y) 2" "3";
    case "higher-order" "(fun f x -> f (f x)) (fun n -> n + 1) 0" "2";
    case "shadowing" "let x = 1 in let x = 2 in x" "2";
    case "partial-prim" "(cons 1) [2]" "[1, 2]";
    case "letrec-fact" "letrec fact n = if n = 0 then 1 else n * fact (n - 1) in fact 6" "720";
    case "letrec-mutual"
      "letrec even n = if n = 0 then true else odd (n - 1); odd n = if n = 0 then false else even (n - 1) in even 10"
      "true";
    case "ps-sorts" Ex.partition_sort_program "[1, 2, 3, 4, 5, 7]";
    case "ps-empty" (Ex.wrap [ Ex.append_def; Ex.split_def; Ex.ps_def ] "ps nil") "[]";
    case "ps-dups" (Ex.wrap [ Ex.append_def; Ex.split_def; Ex.ps_def ] "ps [3, 1, 3, 1]")
      "[1, 1, 3, 3]";
    case "map-pair" Ex.map_pair_program "[[1, 2], [3, 4], [5, 6]]";
    case "rev" Ex.rev_program "[5, 4, 3, 2, 1]";
    case "length" (Ex.wrap [ Ex.length_def ] "length [1, 2, 3]") "3";
    case "sum" (Ex.wrap [ Ex.sum_def ] "sum [1, 2, 3, 4]") "10";
    case "member" (Ex.wrap [ Ex.member_def ] "[member 2 [1, 2], member 5 [1, 2]]")
      "[true, false]";
    case "take-drop"
      (Ex.wrap [ Ex.take_def; Ex.drop_def ] "[take 2 [1, 2, 3], drop 2 [1, 2, 3]]")
      "[[1, 2], [3]]";
    case "nth" (Ex.wrap [ Ex.nth_def ] "nth 1 [10, 20, 30]") "20";
    case "last" (Ex.wrap [ Ex.last_def ] "last [1, 2, 3]") "3";
    case "filter" (Ex.wrap [ Ex.filter_def ] "filter (fun n -> n mod 2 = 0) [1, 2, 3, 4]")
      "[2, 4]";
    case "isort" (Ex.wrap [ Ex.insert_def; Ex.isort_def ] "isort [3, 1, 2]") "[1, 2, 3]";
    case "concat" (Ex.wrap [ Ex.append_def; Ex.concat_def ] "concat [[1], [2, 3], []]")
      "[1, 2, 3]";
    case "create-list" (Ex.wrap [ Ex.create_list_def ] "create_list 4") "[4, 3, 2, 1]";
    case "foldr" (Ex.wrap [ Ex.foldr_def ] "foldr (fun a b -> a + b) 0 [1, 2, 3]") "6";
    case "mkpair" "mkpair 1 true" "(1, true)";
    case "fst-snd" "fst (mkpair 1 2) + snd (mkpair 3 4)" "5";
    case "pair-nested" "mkpair (mkpair 1 2) [3]" "((1, 2), [3])";
    case "zip" (Ex.wrap [ Ex.zip_def ] "zip [1, 2] [true, false]")
      "[(1, true), (2, false)]";
    case "zip-uneven" (Ex.wrap [ Ex.zip_def ] "zip [1] [true, false]") "[(1, true)]";
    case "fsts" (Ex.wrap [ Ex.unzip_fsts_def ] "fsts [mkpair 1 2, mkpair 3 4]") "[1, 3]";
    case "snds" (Ex.wrap [ Ex.unzip_snds_def ] "snds [mkpair 1 2, mkpair 3 4]") "[2, 4]";
    case "swap" (Ex.wrap [ Ex.swap_def ] "swap (mkpair 1 true)") "(true, 1)";
    case "assoc-hit" (Ex.wrap [ Ex.assoc_def ] "assoc 0 2 [mkpair 1 10, mkpair 2 20]") "20";
    case "assoc-miss" (Ex.wrap [ Ex.assoc_def ] "assoc 0 9 [mkpair 1 10]") "0";
    case "leaf" "leaf" "leaf";
    case "node" "node leaf 1 leaf" "(node leaf 1 leaf)";
    case "tree-projections"
      "let t = node (node leaf 1 leaf) 2 leaf in label (left t) + label t" "3";
    case "tinsert-tsum"
      (Ex.wrap [ Ex.tinsert_def; Ex.tsum_def ] "tsum (tinsert 3 (tinsert 1 (tinsert 2 leaf)))")
      "6";
    case "tmap" (Ex.wrap [ Ex.tmap_def ] "tmap (fun n -> n * 10) (node leaf 4 leaf)")
      "(node leaf 40 leaf)";
    case "mirror"
      (Ex.wrap [ Ex.mirror_def ] "mirror (node (node leaf 1 leaf) 2 leaf)")
      "(node leaf 2 (node leaf 1 leaf))";
    case "flatten"
      (Ex.wrap [ Ex.append_def; Ex.flatten_def; Ex.tinsert_def ]
         "flatten (tinsert 2 (tinsert 3 (tinsert 1 leaf)))")
      "[1, 2, 3]";
    case "compose" (Ex.wrap [ Ex.compose_def ] "compose (fun a -> a * 2) (fun b -> b + 1) 5")
      "12";
    error_case "car-nil" "car nil";
    error_case "cdr-nil" "cdr nil";
    error_case "div-zero" "1 div 0";
    error_case "mod-zero" "1 mod 0";
    error_case "letrec-value-recursion" "letrec xs = cons 1 xs in xs";
    error_case "fst-of-list" "fst [1]";
    error_case "label-of-leaf" "label leaf";
    error_case "left-of-leaf" "left leaf";
    Alcotest.test_case "fuel-exhausts" `Quick (fun () ->
        let loop = "letrec f x = f x in f 0" in
        match Eval.run ~fuel:1000 (Surface.of_string loop) with
        | exception Eval.Out_of_fuel -> ()
        | _ -> Alcotest.fail "expected Out_of_fuel");
    Alcotest.test_case "fuel-sufficient" `Quick (fun () ->
        checkb "ok" true
          (Eval.equal_value (Eval.Vint 720)
             (Eval.run ~fuel:100000
                (Surface.of_string "letrec fact n = if n = 0 then 1 else n * fact (n - 1) in fact 6"))));
    Alcotest.test_case "fuel-budget-is-exact" `Quick (fun () ->
        (* unary and binary primitives, cons, mkpair, node, a partial
           [cons 0], a lambda shadowing a let and a letrec; 159 is the
           step count of the unfused applications *)
        let p =
          Surface.of_string
            "letrec map f l = if null l then nil else cons (f (car l)) (map f (cdr l)) in\n\
             let x = [1, 2] in\n\
             let g = fun x -> cons (car x + 1) (cdr x) in\n\
             mkpair (map (cons 0) [x, g x]) (node leaf (car x * 2 - 1) leaf)"
        in
        let steps = 159 in
        for fuel = 0 to steps - 1 do
          match Eval.run ~fuel p with
          | exception Eval.Out_of_fuel -> ()
          | _ -> Alcotest.failf "fuel %d: expected Out_of_fuel" fuel
        done;
        checks "value" "([[0, 1, 2], [0, 2, 2]], (node leaf 1 leaf))"
          (Format.asprintf "%a" Eval.pp_value (Eval.run ~fuel:steps p)));
    Alcotest.test_case "runtime-error-texts" `Quick (fun () ->
        let msg e =
          match e () with
          | exception Eval.Runtime_error m -> m
          | _ -> Alcotest.fail "expected a runtime error"
        in
        let run src () = Eval.run (Surface.of_string src) in
        checks "car" "car of nil" (msg (run "car nil"));
        checks "unbound" "unbound identifier zz at run time"
          (msg (fun () -> Eval.eval (A.var "zz")));
        checks "unbound under a lambda" "unbound identifier zz at run time"
          (msg (fun () -> Eval.eval (A.app (A.lams [ "x" ] (A.var "zz")) [ A.int 1 ])));
        checks "unbound by name" "unbound identifier zz at run time"
          (msg (fun () -> Eval.lookup (Eval.bind "x" (Eval.Vint 1) Eval.empty_env) "zz"));
        checks "letrec" "letrec binding xs is used before its definition is evaluated"
          (msg (run "letrec xs = cons 1 xs in xs"));
        checks "apply" "cannot apply a int as a function" (msg (run "1 2"));
        checks "cons tail" "cons: tail must be a list, got a int" (msg (run "cons 1 2"));
        checks "partial cons tail" "cons: tail must be a list, got a int"
          (msg (run "(cons 1) 2")));
    Alcotest.test_case "env-values-visible-only" `Quick (fun () ->
        let ints env =
          List.sort compare
            (List.map (function Eval.Vint n -> n | _ -> -1) (Eval.env_values env))
        in
        let outer = Eval.bind "x" (Eval.Vint 1) (Eval.bind "y" (Eval.Vint 2) Eval.empty_env) in
        Alcotest.(check (list int)) "shadowed" [ 2; 3 ]
          (ints (Eval.bind "x" (Eval.Vint 3) outer));
        (* [f] filled, [y] pending: the pending slot hides the outer [y] *)
        let group = Eval.letrec_frame [| "f"; "y"; "z" |] [ Eval.Vint 4 ] outer in
        Alcotest.(check (list int)) "pending" [ 1; 4 ] (ints group);
        checks "pending lookup" "letrec binding y is used before its definition is evaluated"
          (match Eval.lookup group "y" with
          | exception Eval.Runtime_error m -> m
          | _ -> "no error");
        (* a repeated name in one group: the later slot is the binding *)
        Alcotest.(check (list int)) "repeated" [ 6 ]
          (ints (Eval.letrec_frame [| "a"; "a" |] [ Eval.Vint 5; Eval.Vint 6 ] Eval.empty_env)));
    Alcotest.test_case "letrec-closure-sees-later-fill" `Quick (fun () ->
        checks "g" "1" (eval_str "letrec f a b = if b = 0 then a else g (b - 1); g = f 1 in g 3");
        (* [h] is made while [k] is pending and reads it once filled *)
        let env = Eval.defs_env (Surface.of_string "letrec h = fun y -> k; k = 7 in 0") in
        match Eval.lookup env "h" with
        | Eval.Vclos (_, _, captured) as h ->
            checkb "captured k" true
              (List.exists (Eval.equal_value (Eval.Vint 7)) (Eval.env_values captured));
            checks "h 0" "7"
              (Format.asprintf "%a" Eval.pp_value (Eval.apply_value h [ Eval.Vint 0 ]))
        | _ -> Alcotest.fail "h is not a closure");
    Alcotest.test_case "value-conversions" `Quick (fun () ->
        let v = Eval.value_of_int_list [ 1; 2; 3 ] in
        Alcotest.(check (list int)) "roundtrip" [ 1; 2; 3 ] (Eval.int_list_of_value v));
    Alcotest.test_case "apply-value" `Quick (fun () ->
        let p = Surface.of_string (Ex.wrap [ Ex.append_def ] "0") in
        let env = Eval.defs_env p in
        let v =
          Eval.apply_value (Eval.lookup env "append")
            [ Eval.value_of_int_list [ 1 ]; Eval.value_of_int_list [ 2 ] ]
        in
        Alcotest.(check (list int)) "append" [ 1; 2 ] (Eval.int_list_of_value v));
  ]

(* ---- monomorphization ---------------------------------------------------- *)

let mono_tests =
  let copies r name =
    List.length
      (List.filter (fun (d, _, _) -> String.equal d name) r.Nml.Mono.instances)
  in
  [
    Alcotest.test_case "two-instances-two-copies" `Quick (fun () ->
        let src = Ex.wrap [ Ex.length_def ] "length [1] + length [[1]]" in
        let r = Nml.Mono.run (Surface.of_string src) in
        checki "copies" 2 (copies r "length");
        checkb "same value" true
          (Eval.equal_value
             (Eval.run (Surface.of_string src))
             (Eval.run r.Nml.Mono.program)));
    Alcotest.test_case "single-instance-keeps-name" `Quick (fun () ->
        let r = Nml.Mono.run (Surface.of_string Ex.partition_sort_program) in
        checkb "ps kept" true (List.mem_assoc "ps" r.Nml.Mono.program.Surface.defs);
        checki "one ps" 1 (copies r "ps");
        checkb "same value" true
          (Eval.equal_value
             (Eval.run (Surface.of_string Ex.partition_sort_program))
             (Eval.run r.Nml.Mono.program)));
    Alcotest.test_case "unused-defs-kept" `Quick (fun () ->
        let src = Ex.wrap [ Ex.length_def; Ex.sum_def ] "sum [1, 2]" in
        let r = Nml.Mono.run (Surface.of_string src) in
        checkb "length kept" true
          (List.mem_assoc "length" r.Nml.Mono.program.Surface.defs));
    Alcotest.test_case "deep-chain-of-instances" `Quick (fun () ->
        (* concat at two instances drags append along to two instances *)
        let src =
          Ex.wrap
            [ Ex.length_def; Ex.append_def; Ex.concat_def ]
            "length (concat [[1]]) + length (concat [[[2]]])"
        in
        let r = Nml.Mono.run (Surface.of_string src) in
        checkb "several appends" true (copies r "append" >= 2);
        checkb "same value" true
          (Eval.equal_value
             (Eval.run (Surface.of_string src))
             (Eval.run r.Nml.Mono.program)));
    Alcotest.test_case "mono-program-reinfers" `Quick (fun () ->
        let src = Ex.wrap [ Ex.length_def ] "length [1] + length [[1]]" in
        let r = Nml.Mono.run (Surface.of_string src) in
        let p = Nml.Infer.infer_program r.Nml.Mono.program in
        checks "main type" "int" (Ty.to_string (Nml.Infer.main_ground p).Tast.ty));
    Alcotest.test_case "collision-avoided" `Quick (fun () ->
        (* a user definition already named length_m2 must not clash *)
        let src =
          Ex.wrap
            [ Ex.length_def; "length_m2 x = x" ]
            "length [1] + length [[2]] + length_m2 0"
        in
        let r = Nml.Mono.run (Surface.of_string src) in
        let names = List.map fst r.Nml.Mono.program.Surface.defs in
        checki "all distinct" (List.length names)
          (List.length (List.sort_uniq compare names));
        checkb "same value" true
          (Eval.equal_value
             (Eval.run (Surface.of_string src))
             (Eval.run r.Nml.Mono.program)));
  ]

(* ---- property-based ----------------------------------------------------- *)

(* Well-scoped random expressions (no bare operator primitives, fresh
   binder names distinct from primitive names). *)
let gen_expr =
  let open QCheck.Gen in
  let var_name = oneofl [ "x0"; "x1"; "x2"; "x3"; "x4"; "y0"; "y1" ] in
  let rec gen scope n =
    let leaves =
      [
        (3, map (fun i -> A.int i) small_signed_int);
        (1, map (fun b -> A.bool b) bool);
        (1, return A.nil);
        (1, map (fun p -> A.Prim (Nml.Loc.dummy, p)) (oneofl [ A.Cons; A.Car; A.Cdr; A.Null ]));
      ]
      @ (if scope = [] then [] else [ (4, map A.var (oneofl scope)) ])
    in
    if n <= 1 then frequency leaves
    else
      frequency
        (leaves
        @ [
            ( 4,
              let* f = gen scope (n / 2) in
              let* a = gen scope (n / 2) in
              return (A.app f [ a ]) );
            ( 3,
              let* x = var_name in
              let* b = gen (x :: scope) (n - 1) in
              return (A.Lam (Nml.Loc.dummy, x, b)) );
            ( 2,
              let* c = gen scope (n / 3) in
              let* t = gen scope (n / 3) in
              let* f = gen scope (n / 3) in
              return (A.If (Nml.Loc.dummy, c, t, f)) );
            ( 1,
              let* x = var_name in
              let* rhs = gen (x :: scope) (n / 2) in
              let* body = gen (x :: scope) (n / 2) in
              return (A.Letrec (Nml.Loc.dummy, [ (x, rhs) ], body)) );
          ])
  in
  QCheck.Gen.sized_size (QCheck.Gen.int_range 1 40) (gen [])

let arb_expr = QCheck.make ~print:Pretty.to_string gen_expr

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"pretty-parse roundtrip" ~count:500 arb_expr (fun e ->
          A.equal e (P.parse (Pretty.to_string e)));
      QCheck.Test.make ~name:"free-vars of closed examples are empty" ~count:1
        (QCheck.make (QCheck.Gen.return ())) (fun () ->
          List.for_all
            (fun (_, def) -> A.free_vars (P.parse (Ex.wrap [ def ] "0")) = [])
            [ ("append", Ex.append_def); ("map", Ex.map_def); ("id", Ex.id_def) ]);
      QCheck.Test.make ~name:"size positive and stable under roundtrip" ~count:200 arb_expr
        (fun e -> A.size e >= 1 && A.size (P.parse (Pretty.to_string e)) = A.size e);
      QCheck.Test.make ~name:"lexer never loops on printable garbage" ~count:200
        QCheck.(string_gen_of_size (Gen.int_range 0 30) Gen.printable)
        (fun s ->
          match L.tokens s with
          | _ -> true
          | exception L.Error _ -> true
          | exception Nml.Parser.Error _ -> true);
    ]

(* ---- instantiate_def against the environment fold ---------------------- *)

(* [Infer.instantiate_def] as it was when it rebuilt the environment from
   every scheme on each call; the prebuilt-environment version must type
   every definition identically. *)
let fold_instantiate_def (p : Infer.program) name inst =
  let rhs = Surface.def p.Infer.surface name in
  let self_ty = match inst with Some t -> t | None -> Ty.fresh_var ~level:1 in
  let env =
    List.fold_left
      (fun env (x, s) ->
        if String.equal x name then Infer.bind_scheme x (Infer.mono self_ty) env
        else Infer.bind_scheme x s env)
      Infer.empty_env p.Infer.schemes
  in
  let trhs = Infer.infer_expr ~env rhs in
  Infer.unify (A.loc rhs) trhs.Tast.ty self_ty;
  Tast.default_ground trhs;
  trhs

let examples_dir =
  let local = Filename.concat (Filename.concat ".." "examples") "programs" in
  if Sys.file_exists local then local else Filename.concat "examples" "programs"

let example_programs () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".nml")
  |> List.sort String.compare
  |> List.map (fun f ->
         (f, In_channel.with_open_text (Filename.concat examples_dir f) In_channel.input_all))

let equivalence_corpus () =
  let examples = example_programs () in
  let rand = Random.State.make [| 16 |] in
  let generated =
    List.init 100 (fun i ->
        (Printf.sprintf "gen-%d" i, QCheck.Gen.generate1 ~rand Gen.gen_program))
  in
  (* a recursive reference whose type nothing else fixes: only the
     monomorphic self binding types it at the instance being re-typed *)
  let self_reference =
    ( "self-reference",
      "letrec len l = if null l then 0 else (let again = len in 1 + len (cdr l)) in \
       len [[1]]" )
  in
  (self_reference :: examples) @ Check.Harness.builtin_corpus @ generated

let instantiate_tests =
  [
    Alcotest.test_case "prebuilt-env-matches-fold" `Quick (fun () ->
        (* the tree and the type of every node: the spine annotations
           read the inner types *)
        let typed t =
          let tys = ref [] in
          Tast.iter_tys (fun ty -> tys := Ty.to_string ty :: !tys) t;
          String.concat "\n" (Format.asprintf "%a" Tast.pp_typed t :: List.rev !tys)
        in
        let compared = ref 0 in
        List.iter
          (fun (label, src) ->
            let surface = Surface.of_string src in
            let p = Infer.infer_program surface in
            let instances = (Nml.Mono.run surface).Nml.Mono.instances in
            List.iter
              (fun (name, _) ->
                let insts =
                  None
                  :: List.filter_map
                       (fun (d, _, ty) -> if String.equal d name then Some (Some ty) else None)
                       instances
                in
                List.iter
                  (fun inst ->
                    incr compared;
                    checks
                      (Printf.sprintf "%s: %s" label name)
                      (typed (fold_instantiate_def p name inst))
                      (typed (Infer.instantiate_def p name inst)))
                  insts)
              p.Infer.schemes)
          (equivalence_corpus ());
        checkb "compared a real corpus" true (!compared > 200));
    Alcotest.test_case "simplest-instance-is-typed-once" `Quick (fun () ->
        (* the program's table hands out one tree per definition, and it
           prints like a fresh simplest instance *)
        List.iter
          (fun (label, src) ->
            let p = Infer.infer_program (Surface.of_string src) in
            List.iter
              (fun (name, _) ->
                let what = Printf.sprintf "%s: %s" label name in
                let first = Infer.simplest p name in
                checkb (what ^ " is the same tree") true (first == Infer.simplest p name);
                checks what
                  (Ty.to_string (Infer.instantiate_def p name None).Tast.ty)
                  (Ty.to_string first.Tast.ty))
              p.Infer.schemes)
          (example_programs () @ Check.Harness.builtin_corpus));
  ]

(* ---- instance keys ----------------------------------------------------- *)

(* Small random types over a pool of three shared variables, so that
   equal-printing pairs (same shape, same variable pattern, different
   variables) turn up often. *)
let gen_ty =
  let pool = Array.init 3 (fun _ -> Ty.fresh_var ~level:1) in
  let open QCheck.Gen in
  let leaf =
    frequency [ (2, return Ty.Int); (1, return Ty.Bool); (2, map (fun i -> pool.(i)) (int_bound 2)) ]
  in
  let ground = frequency [ (2, return Ty.Int); (1, return Ty.Bool) ] in
  let rec go leaf n =
    if n <= 0 then leaf
    else
      frequency
        [
          (1, leaf);
          (2, map (fun t -> Ty.List t) (go leaf (n - 1)));
          (1, map (fun t -> Ty.Tree t) (go leaf (n - 1)));
          (1, map2 (fun a b -> Ty.Prod (a, b)) (go leaf (n / 2)) (go leaf (n / 2)));
          (2, map2 (fun a b -> Ty.Arrow (a, b)) (go leaf (n / 2)) (go leaf (n / 2)));
        ]
  in
  int_range 0 5 >>= fun n -> oneof [ go leaf n; go ground n ]

let arb_ty_pair =
  QCheck.make
    ~print:(fun (a, b) -> Ty.to_string a ^ "  vs  " ^ Ty.to_string b)
    QCheck.Gen.(pair gen_ty gen_ty)

let key_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"key-agrees-with-to-string" ~count:2000 arb_ty_pair
        (fun (a, b) ->
          (Ty.key a = Ty.key b) = (Ty.to_string a = Ty.to_string b));
    ]
  @ [
      Alcotest.test_case "key-names-variables-by-first-occurrence" `Quick (fun () ->
          let a = Ty.fresh_var ~level:1 and b = Ty.fresh_var ~level:1 in
          checkb "'a -> 'b = 'b -> 'a" true
            (Ty.key (Ty.Arrow (a, b)) = Ty.key (Ty.Arrow (b, a)));
          checkb "'a -> 'a <> 'a -> 'b" false
            (Ty.key (Ty.Arrow (a, a)) = Ty.key (Ty.Arrow (a, b)));
          checkb "(int * int) * int <> int * (int * int)" false
            (Ty.key (Ty.Prod (Ty.Prod (Ty.Int, Ty.Int), Ty.Int))
            = Ty.key (Ty.Prod (Ty.Int, Ty.Prod (Ty.Int, Ty.Int)))));
    ]

(* ---- json -------------------------------------------------------------- *)

(* Every committed JSON file and what parsing it must give.  Test
   fixtures are pinned to the digest of [to_string (parse s)], so a parser
   rewrite must read each one back into the same tree; the benchmark
   records at the repository root are rewritten on purpose, so for them
   parsing must only be stable (parse, print and parse again give the same
   tree). *)
type json_pin = Digest_of of string | Stable | Fails_with of string

let json_file_pins =
  [
    ("BENCHMARK.json", Stable);
    ("BENCH_PR10.json", Stable);
    ("BENCH_PR2.json", Stable);
    ("BENCH_PR4.json", Stable);
    ("BENCH_PR5.json", Stable);
    ("BENCH_PR6.json", Stable);
    ("BENCH_PR7.json", Stable);
    ("BENCH_PR8.json", Stable);
    ("BENCH_PR9.json", Stable);
    ("test/cli/bench_corrupt/e1-ill-typed-field.json", Digest_of "06e077d5d408e2866ae1ea8f32ae42d3");
    ("test/cli/bench_corrupt/e1-missing-field.json", Digest_of "5f40fed56a936849da5fb218d47704df");
    ("test/cli/bench_corrupt/e1-p50-above-p99.json", Digest_of "b0471a1c461c5b5bf51afa9df8d09be2");
    ("test/cli/bench_corrupt/gate-h1-heap-allocs-halved.json", Digest_of "8a94b8193e881c84b583763f11599618");
    ("test/cli/bench_corrupt/gate-s1-evaluations-halved.json", Digest_of "c811ce3e7cdc796617963a968beabdcb");
    ("test/cli/bench_corrupt/gate-s5-cold-halved.json", Digest_of "5e067a7366fcdcdafd4be3aaa86f25b9");
    ("test/cli/bench_corrupt/gate-s6-heap-halved.json", Digest_of "54a826bd331e145d0435309ff0ab96f1");
    ("test/cli/bench_corrupt/gate-v1-ratio-unreached.json", Digest_of "f09eb6c41ec0416dc2c51e389a44983a");
    ("test/cli/bench_corrupt/gate-v2-ratio-unreached.json", Digest_of "ee8648727bce4061c2f88b81eaa9d4ba");
    ("test/cli/bench_corrupt/h-ill-typed-field.json", Digest_of "d8071cf46f2097bfbb44abef6f456f3c");
    ("test/cli/bench_corrupt/h-missing-field.json", Digest_of "fa31776f9f016706a977d044cc4cfb39");
    ("test/cli/bench_corrupt/h1-on-more-gc-work.json", Digest_of "8e9a981b317a5e0e186f8cf1f442dd44");
    ("test/cli/bench_corrupt/invalid-json.json", Fails_with "expected '\"' at offset 147");
    ("test/cli/bench_corrupt/l1-ill-typed-field.json", Digest_of "e98c6f26e344751d6de114c9bebce022");
    ("test/cli/bench_corrupt/l1-missing-field.json", Digest_of "2c98c5eab0c4d7ffecc8e0b823955aec");
    ("test/cli/bench_corrupt/l1-warm-not-identical.json", Digest_of "cad7bee64bda5c5be8d5e2c64fe3e8d0");
    ("test/cli/bench_corrupt/no-records.json", Digest_of "6767068805b5c3168bc11d300db3b5f8");
    ("test/cli/bench_corrupt/s1-round-robin-not-beaten.json", Digest_of "e8e7fa8dc59ea65ca870bea5f19d4b9e");
    ("test/cli/bench_corrupt/s3-ill-typed-field.json", Digest_of "455a46bea5420865d3dbb128ddfdafab");
    ("test/cli/bench_corrupt/s3-missing-field.json", Digest_of "b2975c3b31e71893b5088922c341483f");
    ("test/cli/bench_corrupt/s4-edit-not-cheaper.json", Digest_of "f5ba2fcf0de440ac34ce8cab6fd8b37b");
    ("test/cli/bench_corrupt/s4-ill-typed-field.json", Digest_of "5c4ede4896b0bbe88970f65a3a56ba1b");
    ("test/cli/bench_corrupt/s4-missing-field.json", Digest_of "8cef049edf864d2e4d813693c1ccd0e8");
    ("test/cli/bench_corrupt/s4-warm-evaluates.json", Digest_of "053ef7069332d4abb8f15230da81bb85");
    ("test/cli/bench_corrupt/s5-cache-ill-typed-field.json", Digest_of "8fce666e80d369d3942cbc54b6ac2216");
    ("test/cli/bench_corrupt/s5-cache-missing-field.json", Digest_of "2c127122d7acae312fce1b824066eff0");
    ("test/cli/bench_corrupt/s5-framework-evaluations-differ.json", Digest_of "273523d0936da2815e12383fe94f7a7f");
    ("test/cli/bench_corrupt/s5-framework-overhead.json", Digest_of "3bb133f11c3be33e5d0aaa09da8e3fad");
    ("test/cli/bench_corrupt/s5-overhead-ill-typed-field.json", Digest_of "65d6a408c96095246623fcc0fbc01d65");
    ("test/cli/bench_corrupt/s5-overhead-missing-field.json", Digest_of "50cf80809a07f566c1ac9f25222a7cad");
    ("test/cli/bench_corrupt/s5-warm-evaluates.json", Digest_of "9851a409e065536f7af7a306d2006bff");
    ("test/cli/bench_corrupt/s6-baseline-licenses.json", Digest_of "7eb9c84ca8fd83fcc49e92e4350429c5");
    ("test/cli/bench_corrupt/s6-cache-ill-typed-field.json", Digest_of "c9b488f72f5caf212cac960eb2e7e425");
    ("test/cli/bench_corrupt/s6-cache-missing-field.json", Digest_of "6103cb6eb92e792dab264c2c171d4947");
    ("test/cli/bench_corrupt/s6-reuse-ill-typed-field.json", Digest_of "871a080847436e90360a40c541747807");
    ("test/cli/bench_corrupt/s6-reuse-missing-field.json", Digest_of "3ab06ae99241a2b44f05d40b5dacfdb1");
    ("test/cli/bench_corrupt/s6-two-drops.json", Digest_of "8ef916cf27b555d4ed46e766779bf7ce");
    ("test/cli/bench_corrupt/s6-warm-evaluates.json", Digest_of "d81f88be075c8ff6429c98f3b918b4a9");
    ("test/cli/bench_corrupt/solver-ill-typed-field.json", Digest_of "25999ac26a14e1d12935751ec85a2a12");
    ("test/cli/bench_corrupt/solver-missing-field.json", Digest_of "ac29049a0a91605f36dd621c0668bd3b");
    ("test/cli/bench_corrupt/v1-ill-typed-field.json", Digest_of "96983d05ef8f1f94e6fa0864f6d6521e");
    ("test/cli/bench_corrupt/v1-missing-field.json", Digest_of "17e3f8b9a5007fa25d4c5db3f8ddf06a");
    ("test/cli/bench_corrupt/v1-on-longer-pause.json", Digest_of "c43d740f3d5d50b0edfe96125b150d37");
    ("test/cli/bench_corrupt/v2-ill-typed-field.json", Digest_of "4c9ae1c04d8dbc344f8c3c979dc24987");
    ("test/cli/bench_corrupt/v2-missing-field.json", Digest_of "41cd16a66d741e1c2bac37ecb9f5d1d1");
    ("test/cli/bench_corrupt/v2-nothing-fires.json", Digest_of "dad52e83d21da5070c1fe1c51399d995");
    ("test/cli/bench_corrupt/v2-on-more-heap.json", Digest_of "b07a7b70e6b2f7013652e018506cc72c");
    ("test/sarif-2.1.0-minimal.json", Digest_of "232a08a6bbbaf7b5522df4a6b2abf30a");
  ]

let json_tests =
  (* paths are from the repository root; the tests run in [test/], where
     the dune deps copy the root's, [test/]'s and [test/cli/bench_corrupt/]'s
     JSON files *)
  let read f = In_channel.with_open_bin (Filename.concat ".." f) In_channel.input_all in
  let json_files_in dir =
    let on_disk = Filename.concat ".." dir in
    if not (Sys.file_exists on_disk) then []
    else
      Sys.readdir on_disk |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.map (fun f -> if dir = "" then f else dir ^ "/" ^ f)
  in
  let parse_error s =
    match Nml.Json.parse s with
    | _ -> "parsed"
    | exception Nml.Json.Parse_error m -> m
  in
  [
    Alcotest.test_case "committed-files-parse-to-pinned-trees" `Quick (fun () ->
        Alcotest.(check (list string))
          "committed json files"
          (List.sort String.compare (List.map fst json_file_pins))
          (List.sort String.compare
             (List.concat_map json_files_in
                [ ""; "test"; "test/cli/bench_corrupt"; "examples" ]));
        List.iter
          (fun (f, pin) ->
            let s = read f in
            match pin with
            | Digest_of digest ->
                checks f digest
                  (Digest.to_hex (Digest.string (Nml.Json.to_string (Nml.Json.parse s))))
            | Stable ->
                let printed = Nml.Json.to_string (Nml.Json.parse s) in
                checks f printed (Nml.Json.to_string (Nml.Json.parse printed))
            | Fails_with msg -> checks f msg (parse_error s))
          json_file_pins);
    Alcotest.test_case "malformed-inputs-keep-their-messages" `Quick (fun () ->
        List.iter
          (fun (s, msg) -> checks (String.escaped s) msg (parse_error s))
          [
            ("", "unexpected character at offset 0");
            ("   ", "unexpected character at offset 3");
            ("{", "expected '\"' at offset 1");
            ("}", "unexpected character at offset 0");
            ("[", "unexpected character at offset 1");
            ("]", "unexpected character at offset 0");
            ("[1,", "unexpected character at offset 3");
            ("[1 2]", "expected ',' or ']' at offset 3");
            ("[,]", "unexpected character at offset 1");
            ("{,}", "expected '\"' at offset 1");
            ("{1: 2}", "expected '\"' at offset 1");
            ("{\"a\" 1}", "expected ':' at offset 5");
            ("{\"a\": 1 2}", "expected ',' or '}' at offset 8");
            ("{\"a\":}", "unexpected character at offset 5");
            ("\"abc", "unterminated string at offset 4");
            ("\"a\\", "bad escape at offset 3");
            ("tru", "expected true at offset 0");
            ("fals", "expected false at offset 0");
            ("null", "unexpected character at offset 0");
            ("-", "bad number at offset 1");
            ("--1", "bad number at offset 3");
            ("1e", "bad number at offset 2");
            ("1 2", "trailing input at offset 2");
            ("\"a\" x", "trailing input at offset 4");
            ("{\"a\": [1, }", "unexpected character at offset 10");
            ("[\"x\\", "bad escape at offset 4");
            ("x", "unexpected character at offset 0");
          ]);
    Alcotest.test_case "escapes-and-literals" `Quick (fun () ->
        checks "round trip"
          "{\"a\": \"q\\\"b\\\\c\\nd\", \"n\": -1.500, \"t\": true, \"e\": []}\n"
          (Nml.Json.to_string
             (Nml.Json.parse
                " { \"a\" : \"q\\\"b\\\\c\\nd\" ,\"n\":-1.5,\r\n\"t\":true, \"e\":[ ] } "));
        checks "unknown escape keeps the character" "\"u0041\"\n"
          (Nml.Json.to_string (Nml.Json.parse "\"\\u0041\""));
        checks "plain string" "plain"
          (match Nml.Json.parse "\"plain\"" with Nml.Json.Str s -> s | _ -> "?"));
  ]

let () =
  Alcotest.run "nml"
    [
      ("lexer", lexer_tests);
      ("parser", parser_tests);
      ("pretty", pretty_tests);
      ("types", ty_tests);
      ("inference", infer_tests);
      ("evaluation", eval_tests);
      ("monomorphization", mono_tests);
      ("instantiate-def", instantiate_tests);
      ("instance-keys", key_tests);
      ("properties", qcheck_tests);
      ("json", json_tests);
    ]

(** Recursive-descent parser for the [nml] surface syntax.

    Grammar (operator precedence from loosest to tightest):

    {v
      program  ::= expr
      expr     ::= lambda(x). expr  |  \x. expr  |  fun x1 ... xn -> expr
                 | if expr then expr else expr
                 | let x p1 ... pn = expr in expr
                 | letrec bind (; bind)* [;] in expr
                 | or-expr
      bind     ::= x p1 ... pn = expr
      or-expr  ::= and-expr (or and-expr)*
      and-expr ::= cmp-expr (and cmp-expr)*
      cmp-expr ::= cons-expr ((= | <> | < | <= | > | >=) cons-expr)?
      cons-expr::= add-expr (:: cons-expr)?
      add-expr ::= [-] mul-expr ((+ | -) mul-expr)*
      mul-expr ::= app-expr (( * | div | mod) app-expr)*
      app-expr ::= atom atom*
      atom     ::= int | true | false | nil | ident | not atom
                 | ( expr ) | [ expr ((,|;) expr)* ] | [ ]
    v}

    Sugar is eliminated during parsing: [let] becomes a redex,
    [f x1 ... xn = e] becomes nested lambdas, list literals become [cons]
    chains, operators become applications of primitive constants.  The
    identifiers [cons], [car], [cdr] and [null] denote primitives unless
    shadowed by an enclosing binder. *)

exception Error of Loc.t * string

val parse : ?file:string -> string -> Ast.program
(** Parses a complete program; input must be a single expression followed
    by end of file.  @raise Error on syntax errors, and propagates
    {!Lexer.Error}. *)


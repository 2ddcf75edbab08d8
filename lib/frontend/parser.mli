(** Recursive-descent parser for the Lime subset (see DESIGN.md §5 for the
    grammar).  All entry points raise {!Lime_support.Diag.Error_exn} on
    syntax errors, with precise source spans. *)

val program_of_tokens : Lexer.located list -> Ast.program
(** Parse the tokens of a whole source, as {!Lexer.tokenize} returns them. *)

val program_of_string : ?name:string -> string -> Ast.program

val expr_of_string : ?name:string -> string -> Ast.expr
(** Parse a single expression (testing/tooling); rejects trailing tokens. *)

val stmt_of_string : ?name:string -> string -> Ast.stmt
(** Parse a single statement (testing/tooling). *)

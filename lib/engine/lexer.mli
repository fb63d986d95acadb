(** MiniJS lexer.

    Tokenises a script held in {e machine memory}: every character is a
    checked byte load executed in whatever compartment is current.  When
    the browser hands the engine a script buffer allocated from MT, the
    very first profiling run faults here — script source is the simplest
    of the cross-compartment data flows PKRU-Safe must discover.

    Each peek is one checked load (none past the end of the buffer); the
    load sequence is pinned by test: the "front end pinned" case in
    [test/test_engine.ml] fixes the cycles, TLB counts, tokens and parse
    of every bench and browsing script.  Host-side rewrites of this
    module must also keep each load's address and order, which the
    counts alone cannot see. *)

type token =
  | Num of float
  | Str of string
  | Ident of string
  | Keyword of string (* var function if else while for return break continue true false null new *)
  | Punct of string   (* operators and delimiters *)
  | Eof

type located = {
  tok : token;
  line : int;
}

exception Lex_error of string

val tokenize : Value.heap -> Value.str -> located list
(** @raise Lex_error on malformed input. *)

val token_to_string : token -> string

type token =
  | Num of float
  | Str of string
  | Ident of string
  | Keyword of string
  | Punct of string
  | Eof

type located = {
  tok : token;
  line : int;
}

exception Lex_error of string

let () =
  Printexc.register_printer (function
    | Lex_error msg -> Some ("Lexer.Lex_error: " ^ msg)
    | _ -> None)

let keyword_or_ident word =
  match word with
  | "var" | "function" | "if" | "else" | "while" | "for" | "return" | "break" | "continue"
  | "true" | "false" | "null" | "new" ->
    Keyword word
  | _ -> Ident word

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident_char c = is_ident_start c || is_digit c

(* Two- and one-character punctuators; [""] when there is none.  The
   results are literals, so matching a punctuator allocates nothing. *)
let punct2 c c2 =
  match (c, c2) with
  | '=', '=' -> "=="
  | '!', '=' -> "!="
  | '<', '=' -> "<="
  | '>', '=' -> ">="
  | '&', '&' -> "&&"
  | '|', '|' -> "||"
  | '+', '=' -> "+="
  | '-', '=' -> "-="
  | '*', '=' -> "*="
  | '/', '=' -> "/="
  | '%', '=' -> "%="
  | '<', '<' -> "<<"
  | '>', '>' -> ">>"
  | _ -> ""

let punct1 = function
  | '+' -> "+" | '-' -> "-" | '*' -> "*" | '/' -> "/" | '%' -> "%" | '<' -> "<" | '>' -> ">"
  | '=' -> "=" | '!' -> "!" | '(' -> "(" | ')' -> ")" | '{' -> "{" | '}' -> "}" | '[' -> "["
  | ']' -> "]" | ';' -> ";" | ',' -> "," | '.' -> "." | ':' -> ":" | '?' -> "?" | '&' -> "&"
  | '|' -> "|" | '^' -> "^" | '~' -> "~"
  | _ -> ""

type cursor = {
  heap : Value.heap;
  src : Value.str;
  mutable pos : int;
  mutable line : int;
  buf : Buffer.t; (* the literal or word being scanned *)
}

(* A peek is one checked byte load, or [eof] (no load) past the end.
   [char_of] turns a peeked byte into a char for matching; it is only
   applied once [eof] has been ruled out. *)
let eof = -1

let peek cur =
  if cur.pos >= cur.src.Value.s_len then eof else Value.str_get cur.heap cur.src cur.pos

let peek2 cur =
  if cur.pos + 1 >= cur.src.Value.s_len then eof
  else Value.str_get cur.heap cur.src (cur.pos + 1)

let char_of = Char.unsafe_chr

let is_byte b c = b = Char.code c

let advance cur =
  if is_byte (peek cur) '\n' then cur.line <- cur.line + 1;
  cur.pos <- cur.pos + 1

let fail cur msg = raise (Lex_error (Printf.sprintf "line %d: %s" cur.line msg))

let rec skip_trivia cur =
  let c = peek cur in
  if c = eof then ()
  else
    match char_of c with
    | ' ' | '\t' | '\r' | '\n' ->
      advance cur;
      skip_trivia cur
    | '/' when is_byte (peek2 cur) '/' ->
      let rec to_eol () =
        let c = peek cur in
        if c <> eof && not (is_byte c '\n') then begin
          advance cur;
          to_eol ()
        end
      in
      to_eol ();
      skip_trivia cur
    (* A '/' that opens no line comment loads its successor once per
       guard; the pinned load counts include that second load. *)
    | '/' when is_byte (peek2 cur) '*' ->
      advance cur;
      advance cur;
      let rec to_close () =
        (* The successor is loaded before the current byte. *)
        let c2 = peek2 cur in
        let c = peek cur in
        if is_byte c '*' && is_byte c2 '/' then begin
          advance cur;
          advance cur
        end
        else if c = eof then fail cur "unterminated block comment"
        else begin
          advance cur;
          to_close ()
        end
      in
      to_close ();
      skip_trivia cur
    | _ -> ()

let is_digit_byte c = c <> eof && is_digit (char_of c)

let lex_number cur =
  let buf = cur.buf in
  Buffer.clear buf;
  let rec digits () =
    let c = peek cur in
    if is_digit_byte c then begin
      Buffer.add_char buf (char_of c);
      advance cur;
      digits ()
    end
  in
  digits ();
  (* The successor is loaded before the current byte. *)
  let c2 = peek2 cur in
  let c = peek cur in
  if is_byte c '.' && is_digit_byte c2 then begin
    Buffer.add_char buf '.';
    advance cur;
    digits ()
  end;
  let c = peek cur in
  if is_byte c 'e' || is_byte c 'E' then begin
    Buffer.add_char buf 'e';
    advance cur;
    let sign = peek cur in
    if is_byte sign '+' || is_byte sign '-' then begin
      Buffer.add_char buf (char_of sign);
      advance cur
    end;
    digits ()
  end;
  match float_of_string_opt (Buffer.contents buf) with
  | Some f -> Num f
  | None -> fail cur ("bad number literal " ^ Buffer.contents buf)

let lex_string cur quote =
  advance cur;
  let buf = cur.buf in
  Buffer.clear buf;
  let rec loop () =
    let c = peek cur in
    if c = eof then fail cur "unterminated string literal"
    else if c = Char.code quote then advance cur
    else if is_byte c '\\' then begin
      advance cur;
      let e = peek cur in
      if e = eof then fail cur "unterminated escape";
      Buffer.add_char buf
        (match char_of e with
        | 'n' -> '\n'
        | 't' -> '\t'
        | 'r' -> '\r'
        | e -> e);
      advance cur;
      loop ()
    end
    else begin
      Buffer.add_char buf (char_of c);
      advance cur;
      loop ()
    end
  in
  loop ();
  Str (Buffer.contents buf)

let lex_word cur =
  let buf = cur.buf in
  Buffer.clear buf;
  let rec loop () =
    let c = peek cur in
    if c <> eof && is_ident_char (char_of c) then begin
      Buffer.add_char buf (char_of c);
      advance cur;
      loop ()
    end
  in
  loop ();
  keyword_or_ident (Buffer.contents buf)

let lex_punct cur c =
  let c2 = peek2 cur in
  let two = if c2 = eof then "" else punct2 c (char_of c2) in
  if two <> "" then begin
    advance cur;
    advance cur;
    Punct two
  end
  else
    let one = punct1 c in
    if one <> "" then begin
      advance cur;
      Punct one
    end
    else fail cur (Printf.sprintf "unexpected character %C" c)

let tokenize heap src =
  let cur = { heap; src; pos = 0; line = 1; buf = Buffer.create 64 } in
  let rec loop acc =
    skip_trivia cur;
    let line = cur.line in
    let c = peek cur in
    if c = eof then List.rev ({ tok = Eof; line } :: acc)
    else
      let c = char_of c in
      let tok =
        if is_digit c then lex_number cur
        else if is_ident_start c then lex_word cur
        else if c = '"' || c = '\'' then lex_string cur c
        else lex_punct cur c
      in
      loop ({ tok; line } :: acc)
  in
  loop []

let token_to_string = function
  | Num f -> Printf.sprintf "number %g" f
  | Str s -> Printf.sprintf "string %S" s
  | Ident s -> Printf.sprintf "identifier %s" s
  | Keyword s -> Printf.sprintf "keyword %s" s
  | Punct s -> Printf.sprintf "%S" s
  | Eof -> "end of input"

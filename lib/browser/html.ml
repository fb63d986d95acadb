type tree =
  | Element of string * (string * string) list * tree list
  | Text of string

exception Html_error of string

let () =
  Printexc.register_printer (function
    | Html_error msg -> Some ("Html.Html_error: " ^ msg)
    | _ -> None)

type cursor = { src : string; mutable pos : int }

let fail cur msg = raise (Html_error (Printf.sprintf "%s at offset %d" msg cur.pos))

(* The byte at the cursor as an int code, or [eof] past the end, so
   peeking allocates nothing. *)
let eof = -1

let peek cur = if cur.pos < String.length cur.src then Char.code cur.src.[cur.pos] else eof

let at cur c = peek cur = Char.code c

let advance cur = cur.pos <- cur.pos + 1

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '-' || c = '_'

let at_name_char cur =
  let c = peek cur in
  c <> eof && is_name_char (Char.unsafe_chr c)

let rec skip_ws cur =
  if at cur ' ' || at cur '\t' || at cur '\n' || at cur '\r' then begin
    advance cur;
    skip_ws cur
  end

let read_name cur =
  let start = cur.pos in
  while at_name_char cur do
    advance cur
  done;
  if cur.pos = start then fail cur "expected a name";
  String.sub cur.src start (cur.pos - start)

let read_attrs cur =
  let rec loop acc =
    skip_ws cur;
    if at_name_char cur then begin
      let name = read_name cur in
      skip_ws cur;
      if at cur '=' then begin
        advance cur;
        skip_ws cur;
        if at cur '"' then begin
          advance cur;
          let start = cur.pos in
          let rec to_quote () =
            let c = peek cur in
            if c = eof then fail cur "unterminated attribute value"
            else if c <> Char.code '"' then begin
              advance cur;
              to_quote ()
            end
          in
          to_quote ();
          let value = String.sub cur.src start (cur.pos - start) in
          advance cur;
          loop ((name, value) :: acc)
        end
        else fail cur "expected a quoted attribute value"
      end
      else loop ((name, "") :: acc)
    end
    else List.rev acc
  in
  loop []

(* Parse a sequence of nodes until [stop_tag] (or end of input when None). *)
let rec parse_nodes cur stop_tag =
  let nodes = ref [] in
  let rec loop () =
    if peek cur = eof then (
      match stop_tag with
      | None -> ()
      | Some tag -> fail cur (Printf.sprintf "missing </%s>" tag))
    else if at cur '<' then
      if cur.pos + 1 < String.length cur.src && cur.src.[cur.pos + 1] = '/' then begin
        (* Closing tag: consume and verify against the stop tag. *)
        advance cur;
        advance cur;
        let name = read_name cur in
        skip_ws cur;
        if at cur '>' then advance cur else fail cur "expected '>' in closing tag";
        match stop_tag with
        | Some tag when tag = name -> ()
        | Some tag -> fail cur (Printf.sprintf "expected </%s>, found </%s>" tag name)
        | None -> fail cur (Printf.sprintf "stray closing tag </%s>" name)
      end
      else begin
        advance cur;
        let name = read_name cur in
        let attrs = read_attrs cur in
        skip_ws cur;
        if at cur '/' then begin
          advance cur;
          if at cur '>' then begin
            advance cur;
            nodes := Element (name, attrs, []) :: !nodes
          end
          else fail cur "expected '>' after '/'"
        end
        else if at cur '>' then begin
          advance cur;
          let kids = parse_nodes cur (Some name) in
          nodes := Element (name, attrs, kids) :: !nodes
        end
        else fail cur "expected '>' in opening tag";
        loop ()
      end
    else begin
      let start = cur.pos in
      while peek cur <> eof && not (at cur '<') do
        advance cur
      done;
      let text = String.sub cur.src start (cur.pos - start) in
      if String.trim text <> "" then nodes := Text text :: !nodes;
      loop ()
    end
  in
  loop ();
  List.rev !nodes

let parse src = parse_nodes { src; pos = 0 } None

let rec node_to_string buf = function
  | Text s -> Buffer.add_string buf s
  | Element (name, attrs, kids) ->
    Buffer.add_char buf '<';
    Buffer.add_string buf name;
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf (Printf.sprintf " %s=\"%s\"" k v))
      attrs;
    Buffer.add_char buf '>';
    List.iter (node_to_string buf) kids;
    Buffer.add_string buf "</";
    Buffer.add_string buf name;
    Buffer.add_char buf '>'

let to_string trees =
  let buf = Buffer.create 128 in
  List.iter (node_to_string buf) trees;
  Buffer.contents buf

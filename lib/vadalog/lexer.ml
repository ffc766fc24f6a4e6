(** Tokenizer shared by the Vadalog parser (and reused, with a few extra
    tokens, by the MetaLog parser in [kgm_metalog]). Comments run from
    ['%'] to end of line. *)

open Kgm_common

type token =
  | IDENT of string     (* identifier; case decides var vs symbol in term position *)
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN | RPAREN
  | LBRACKET | RBRACKET
  | LBRACE | RBRACE
  | COMMA | DOT | COLON | SEMI
  | IMPLIED_BY          (* :- *)
  | ARROW               (* => *)
  | EQ                  (* = *)
  | EQEQ | NEQ | LT | LE | GT | GE
  | PLUS | MINUS | STAR | SLASH | CONCAT (* ++ *)
  | AT | HASH | PIPE | TILDE | QUESTION
  | EOF

type t = {
  tok : token;
  line : int;
  col : int;
}

let token_name = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT i -> Printf.sprintf "integer %d" i
  | FLOAT f -> Printf.sprintf "float %g" f
  | STRING s -> Printf.sprintf "string %S" s
  | LPAREN -> "'('" | RPAREN -> "')'"
  | LBRACKET -> "'['" | RBRACKET -> "']'"
  | LBRACE -> "'{'" | RBRACE -> "'}'"
  | COMMA -> "','" | DOT -> "'.'" | COLON -> "':'" | SEMI -> "';'"
  | IMPLIED_BY -> "':-'" | ARROW -> "'=>'"
  | EQ -> "'='" | EQEQ -> "'=='" | NEQ -> "'!='"
  | LT -> "'<'" | LE -> "'<='" | GT -> "'>'" | GE -> "'>='"
  | PLUS -> "'+'" | MINUS -> "'-'" | STAR -> "'*'" | SLASH -> "'/'"
  | CONCAT -> "'++'"
  | AT -> "'@'" | HASH -> "'#'" | PIPE -> "'|'" | TILDE -> "'~'"
  | QUESTION -> "'?'"
  | EOF -> "end of input"

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let emit tok = toks := { tok; line = !line; col = !col } :: !toks in
  let advance () =
    (if !i < n && src.[!i] = '\n' then begin
       incr line;
       col := 0
     end);
    incr i;
    incr col
  in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '%' then
      while !i < n && src.[!i] <> '\n' do
        advance ()
      done
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      emit (IDENT (String.sub src start (!i - start)))
    end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
        advance ()
      done;
      let is_float =
        !i + 1 < n && src.[!i] = '.' && src.[!i + 1] >= '0' && src.[!i + 1] <= '9'
      in
      if is_float then begin
        advance ();
        while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
          advance ()
        done;
        emit (FLOAT (float_of_string (String.sub src start (!i - start))))
      end
      else begin
        let digits = String.sub src start (!i - start) in
        match int_of_string_opt digits with
        | Some k -> emit (INT k)
        | None ->
            Kgm_error.parse_error "line %d: integer literal %s out of range"
              !line digits
      end
    end
    else if c = '"' then begin
      advance ();
      let buf = Buffer.create 16 in
      let closed = ref false in
      while not !closed do
        if !i >= n then Kgm_error.parse_error "line %d: unterminated string" !line;
        let c = src.[!i] in
        if c = '"' then begin
          advance ();
          closed := true
        end
        else if c = '\\' && !i + 1 < n then begin
          advance ();
          let e = src.[!i] in
          Buffer.add_char buf
            (match e with 'n' -> '\n' | 't' -> '\t' | c -> c);
          advance ()
        end
        else begin
          Buffer.add_char buf c;
          advance ()
        end
      done;
      emit (STRING (Buffer.contents buf))
    end
    else begin
      let two a b tok = peek 0 = Some a && peek 1 = Some b && (emit tok; advance (); advance (); true) in
      let one tok = emit tok; advance () in
      if two ':' '-' IMPLIED_BY then ()
      else if two '=' '>' ARROW then ()
      else if two '=' '=' EQEQ then ()
      else if two '!' '=' NEQ then ()
      else if two '<' '=' LE then ()
      else if two '>' '=' GE then ()
      else if two '+' '+' CONCAT then ()
      else
        match c with
        | '(' -> one LPAREN | ')' -> one RPAREN
        | '[' -> one LBRACKET | ']' -> one RBRACKET
        | '{' -> one LBRACE | '}' -> one RBRACE
        | ',' -> one COMMA | '.' -> one DOT | ':' -> one COLON | ';' -> one SEMI
        | '=' -> one EQ | '<' -> one LT | '>' -> one GT
        | '+' -> one PLUS | '-' -> one MINUS | '*' -> one STAR | '/' -> one SLASH
        | '@' -> one AT | '#' -> one HASH | '|' -> one PIPE | '~' -> one TILDE
        | '?' -> one QUESTION
        | c -> Kgm_error.parse_error "line %d: unexpected character %C" !line c
    end
  done;
  emit EOF;
  List.rev !toks

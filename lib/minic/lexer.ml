type token =
  | INT_LIT of int
  | IDENT of string
  | KW_STRUCT | KW_INT | KW_VOID | KW_IF | KW_ELSE | KW_WHILE | KW_RETURN
  | KW_MALLOC | KW_FREE | KW_NULL | KW_PRINT
  | LBRACE | RBRACE | LPAREN | RPAREN | LBRACKET | RBRACKET | SEMI | COMMA | STAR
  | ARROW | ASSIGN
  | PLUS | MINUS | SLASH | PERCENT
  | EQ | NE | LT | LE | GT | GE | ANDAND | OROR | BANG
  | EOF

exception Lex_error of { line : int; message : string }

let keyword = function
  | "struct" -> Some KW_STRUCT
  | "int" -> Some KW_INT
  | "void" -> Some KW_VOID
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "while" -> Some KW_WHILE
  | "return" -> Some KW_RETURN
  | "malloc" -> Some KW_MALLOC
  | "free" -> Some KW_FREE
  | "null" | "NULL" -> Some KW_NULL
  | "print" -> Some KW_PRINT
  | _ -> None

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

(* Tokenize with full source positions: each token carries the 1-based
   line and column of its first character. *)
let tokenize_pos src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  (* Index of the first character of the current line; columns are
     [i - bol + 1]. *)
  let bol = ref 0 in
  let newline i = incr line; bol := i + 1 in
  let emit_at i tok =
    tokens := (tok, { Ast.line = !line; col = i - !bol + 1 }) :: !tokens
  in
  let error message = raise (Lex_error { line = !line; message }) in
  let rec go i =
    if i >= n then ()
    else
      match src.[i] with
      | '\n' ->
        newline i;
        go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' ->
        let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
        go (skip (i + 2))
      | '/' when i + 1 < n && src.[i + 1] = '*' ->
        let rec skip j =
          if j + 1 >= n then error "unterminated comment"
          else if src.[j] = '*' && src.[j + 1] = '/' then j + 2
          else begin
            if src.[j] = '\n' then newline j;
            skip (j + 1)
          end
        in
        go (skip (i + 2))
      | c when is_digit c ->
        let rec scan j = if j < n && is_digit src.[j] then scan (j + 1) else j in
        let j = scan i in
        let digits = String.sub src i (j - i) in
        (match int_of_string_opt digits with
         | Some v -> emit_at i (INT_LIT v)
         | None -> error ("integer literal out of range: " ^ digits));
        go j
      | c when is_ident_start c ->
        let rec scan j = if j < n && is_ident_char src.[j] then scan (j + 1) else j in
        let j = scan i in
        let word = String.sub src i (j - i) in
        emit_at i (match keyword word with Some kw -> kw | None -> IDENT word);
        go j
      | '{' -> emit_at i LBRACE; go (i + 1)
      | '}' -> emit_at i RBRACE; go (i + 1)
      | '(' -> emit_at i LPAREN; go (i + 1)
      | ')' -> emit_at i RPAREN; go (i + 1)
      | '[' -> emit_at i LBRACKET; go (i + 1)
      | ']' -> emit_at i RBRACKET; go (i + 1)
      | ';' -> emit_at i SEMI; go (i + 1)
      | ',' -> emit_at i COMMA; go (i + 1)
      | '*' -> emit_at i STAR; go (i + 1)
      | '+' -> emit_at i PLUS; go (i + 1)
      | '%' -> emit_at i PERCENT; go (i + 1)
      | '/' -> emit_at i SLASH; go (i + 1)
      | '-' ->
        if i + 1 < n && src.[i + 1] = '>' then begin emit_at i ARROW; go (i + 2) end
        else begin emit_at i MINUS; go (i + 1) end
      | '=' ->
        if i + 1 < n && src.[i + 1] = '=' then begin emit_at i EQ; go (i + 2) end
        else begin emit_at i ASSIGN; go (i + 1) end
      | '!' ->
        if i + 1 < n && src.[i + 1] = '=' then begin emit_at i NE; go (i + 2) end
        else begin emit_at i BANG; go (i + 1) end
      | '<' ->
        if i + 1 < n && src.[i + 1] = '=' then begin emit_at i LE; go (i + 2) end
        else begin emit_at i LT; go (i + 1) end
      | '>' ->
        if i + 1 < n && src.[i + 1] = '=' then begin emit_at i GE; go (i + 2) end
        else begin emit_at i GT; go (i + 1) end
      | '&' ->
        if i + 1 < n && src.[i + 1] = '&' then begin emit_at i ANDAND; go (i + 2) end
        else error "expected '&&'"
      | '|' ->
        if i + 1 < n && src.[i + 1] = '|' then begin emit_at i OROR; go (i + 2) end
        else error "expected '||'"
      | c -> error (Printf.sprintf "unexpected character %C" c)
  in
  go 0;
  emit_at n EOF;
  List.rev !tokens

let tokenize src =
  List.map (fun (tok, p) -> (tok, p.Ast.line)) (tokenize_pos src)

let token_label = function
  | INT_LIT n -> string_of_int n
  | IDENT s -> Printf.sprintf "identifier %S" s
  | KW_STRUCT -> "'struct'" | KW_INT -> "'int'" | KW_VOID -> "'void'"
  | KW_IF -> "'if'" | KW_ELSE -> "'else'" | KW_WHILE -> "'while'"
  | KW_RETURN -> "'return'" | KW_MALLOC -> "'malloc'" | KW_FREE -> "'free'"
  | KW_NULL -> "'null'" | KW_PRINT -> "'print'"
  | LBRACE -> "'{'" | RBRACE -> "'}'" | LPAREN -> "'('" | RPAREN -> "')'"
  | LBRACKET -> "'['" | RBRACKET -> "']'"
  | SEMI -> "';'" | COMMA -> "','" | STAR -> "'*'"
  | ARROW -> "'->'" | ASSIGN -> "'='"
  | PLUS -> "'+'" | MINUS -> "'-'" | SLASH -> "'/'" | PERCENT -> "'%'"
  | EQ -> "'=='" | NE -> "'!='" | LT -> "'<'" | LE -> "'<='"
  | GT -> "'>'" | GE -> "'>='" | ANDAND -> "'&&'" | OROR -> "'||'"
  | BANG -> "'!'"
  | EOF -> "end of input"

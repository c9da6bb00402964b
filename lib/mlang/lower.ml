(* Lowering from the Mlang AST to the MIPS-like IR.

   Straightforward syntax-directed translation, one virtual register
   per local, with three local strengthenings that make the output
   resemble a non-optimizing C compiler's MIPS: bottom-up constant
   folding, immediate forms for constant right operands, and fused
   compare-and-branch for conditions. *)

open Ast
module SM = Map.Make (String)

type fctx = {
  gsigs : Typecheck.gsig SM.t;
  fsigs : Typecheck.fsig SM.t;
  tctx : Typecheck.ctx;
  mutable next_int : int;
  mutable next_flt : int;
  mutable next_label : int;
  mutable acc : Ir.Instr.t list;  (* reversed *)
  fname : string;
}

type venv = (Ir.Reg.t * ty) SM.t

let emit ctx i = ctx.acc <- i :: ctx.acc

let fresh_i ctx =
  let r = Ir.Reg.int ctx.next_int in
  ctx.next_int <- ctx.next_int + 1;
  r

let fresh_f ctx =
  let r = Ir.Reg.flt ctx.next_flt in
  ctx.next_flt <- ctx.next_flt + 1;
  r

let fresh ctx = function TInt -> fresh_i ctx | TFlt -> fresh_f ctx

let fresh_label ctx =
  let l = Printf.sprintf "%s_L%d" ctx.fname ctx.next_label in
  ctx.next_label <- ctx.next_label + 1;
  l

let tenv_of (env : venv) : ty SM.t = SM.map snd env

let infer ctx env e = Typecheck.infer ctx.tctx (tenv_of env) e

let ir_ty = function TInt -> Ir.Ty.I32 | TFlt -> Ir.Ty.F64

let ir_binop : binop -> Ir.Instr.binop = function
  | Add -> Ir.Instr.Add
  | Sub -> Ir.Instr.Sub
  | Mul -> Ir.Instr.Mul
  | Div -> Ir.Instr.Div
  | Rem -> Ir.Instr.Rem
  | BAnd -> Ir.Instr.And
  | BOr -> Ir.Instr.Or
  | BXor -> Ir.Instr.Xor
  | Shl -> Ir.Instr.Sll
  | Shr -> Ir.Instr.Srl
  | Ashr -> Ir.Instr.Sra

let ir_fbinop : binop -> Ir.Instr.fbinop = function
  | Add -> Ir.Instr.Fadd
  | Sub -> Ir.Instr.Fsub
  | Mul -> Ir.Instr.Fmul
  | Div -> Ir.Instr.Fdiv
  | Rem | BAnd | BOr | BXor | Shl | Shr | Ashr ->
    invalid_arg "integer-only operator on floats"

let ir_cmpop : cmpop -> Ir.Instr.cmpop = function
  | Eq -> Ir.Instr.Eq
  | Ne -> Ir.Instr.Ne
  | Lt -> Ir.Instr.Lt
  | Le -> Ir.Instr.Le
  | Gt -> Ir.Instr.Gt
  | Ge -> Ir.Instr.Ge

let negate_cmp : Ir.Instr.cmpop -> Ir.Instr.cmpop = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

(* 32-bit wrap-around used both here (folding) and by the simulator. *)
let sx32 v = ((v land 0xFFFFFFFF) lxor 0x80000000) - 0x80000000

let fold_int op a b =
  match op with
  | Add -> Some (sx32 (a + b))
  | Sub -> Some (sx32 (a - b))
  | Mul -> Some (sx32 (a * b))
  | Div -> if b = 0 then None else Some (sx32 (a / b))
  | Rem -> if b = 0 then None else Some (sx32 (a mod b))
  | BAnd -> Some (a land b)
  | BOr -> Some (a lor b)
  | BXor -> Some (a lxor b)
  | Shl -> Some (sx32 (a lsl (b land 31)))
  | Shr -> Some (sx32 ((a land 0xFFFFFFFF) lsr (b land 31)))
  | Ashr -> Some (a asr (b land 31))

let cmp_int op a b =
  let holds =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
  in
  if holds then 1 else 0

(* Bottom-up constant folding on the AST. An integer literal folds as
   the 32-bit value its [Li] loads, so every fold computes on the
   machine's operands. *)
let rec fold (e : expr) : expr =
  match e with
  | Int n -> Int (sx32 n)
  | Flt _ | Var _ -> e
  | Bin (op, a, b) -> begin
    match (fold a, fold b) with
    | Int x, Int y -> (
      match fold_int op x y with
      | Some v -> Int v
      | None -> Bin (op, Int x, Int y))
    | Flt x, Flt y -> begin
      match op with
      | Add -> Flt (x +. y)
      | Sub -> Flt (x -. y)
      | Mul -> Flt (x *. y)
      | Div -> Flt (x /. y)
      | _ -> Bin (op, Flt x, Flt y)
    end
    | a, b -> Bin (op, a, b)
  end
  | Cmp (op, a, b) -> begin
    match (fold a, fold b) with
    | Int x, Int y -> Int (cmp_int op x y)
    | a, b -> Cmp (op, a, b)
  end
  | Neg a -> begin
    match fold a with
    | Int x -> Int (sx32 (-x))
    | Flt x -> Flt (-.x)
    | a -> Neg a
  end
  | Not a -> begin
    match fold a with Int x -> Int (if x = 0 then 1 else 0) | a -> Not a
  end
  | Load (g, idx) -> Load (g, fold idx)
  | Call (f, args) -> Call (f, List.map fold args)
  | I2F a -> (match fold a with Int x -> Flt (float_of_int x) | a -> I2F a)
  | F2I a -> F2I (fold a)

let commutative = function
  | Add | Mul | BAnd | BOr | BXor -> true
  | Sub | Div | Rem | Shl | Shr | Ashr -> false

(* Compile [e] and return the register holding its value; variables
   are returned in place (no copy). *)
let rec compile_expr ctx env (e : expr) : Ir.Reg.t =
  match e with
  | Var x -> fst (SM.find x env)
  | _ ->
    let d = fresh ctx (infer ctx env e) in
    compile_into ctx env d e;
    d

(* Compile [e] directly into destination register [d]. *)
and compile_into ctx env d (e : expr) : unit =
  match fold e with
  | Int n -> emit ctx (Ir.Instr.Li (d, Int32.of_int n))
  | Flt x -> emit ctx (Ir.Instr.Lf (d, x))
  | Var x ->
    let r, _ = SM.find x env in
    if not (Ir.Reg.equal r d) then emit ctx (Ir.Instr.Mov (d, r))
  | Bin (op, a, b) as whole -> begin
    match infer ctx env whole with
    | TFlt ->
      let ra = compile_expr ctx env a in
      let rb = compile_expr ctx env b in
      emit ctx (Ir.Instr.Fbin (ir_fbinop op, d, ra, rb))
    | TInt -> begin
      match (a, b) with
      | _, Int n ->
        let ra = compile_expr ctx env a in
        emit ctx (Ir.Instr.Bini (ir_binop op, d, ra, Int32.of_int n))
      | Int n, _ when commutative op ->
        let rb = compile_expr ctx env b in
        emit ctx (Ir.Instr.Bini (ir_binop op, d, rb, Int32.of_int n))
      | _ ->
        let ra = compile_expr ctx env a in
        let rb = compile_expr ctx env b in
        emit ctx (Ir.Instr.Bin (ir_binop op, d, ra, rb))
    end
  end
  | Cmp (op, a, b) -> begin
    let ra = compile_expr ctx env a in
    let rb = compile_expr ctx env b in
    match infer ctx env a with
    | TInt -> emit ctx (Ir.Instr.Cmp (ir_cmpop op, d, ra, rb))
    | TFlt -> emit ctx (Ir.Instr.Fcmp (ir_cmpop op, d, ra, rb))
  end
  | Neg a -> begin
    match infer ctx env a with
    | TFlt ->
      let ra = compile_expr ctx env a in
      emit ctx (Ir.Instr.Fun_ (Ir.Instr.Fneg, d, ra))
    | TInt ->
      let ra = compile_expr ctx env a in
      let rz = fresh_i ctx in
      emit ctx (Ir.Instr.Li (rz, 0l));
      emit ctx (Ir.Instr.Bin (Ir.Instr.Sub, d, rz, ra))
  end
  | Not a ->
    let ra = compile_expr ctx env a in
    let rz = fresh_i ctx in
    emit ctx (Ir.Instr.Li (rz, 0l));
    emit ctx (Ir.Instr.Cmp (Ir.Instr.Eq, d, ra, rz))
  | Load (g, idx) -> begin
    let gs = SM.find g ctx.gsigs in
    let addr, off = element_addr ctx env g gs idx in
    match (gs.Typecheck.g_ty, gs.Typecheck.g_byte) with
    | TInt, true -> emit ctx (Ir.Instr.Lb (d, addr, off))
    | TInt, false -> emit ctx (Ir.Instr.Lw (d, addr, off))
    | TFlt, _ -> emit ctx (Ir.Instr.Lwf (d, addr, off))
  end
  | Call (f, args) ->
    let regs = List.map (compile_expr ctx env) args in
    emit ctx (Ir.Instr.Call { dst = Some d; func = f; args = regs })
  | I2F a ->
    let ra = compile_expr ctx env a in
    emit ctx (Ir.Instr.I2f (d, ra))
  | F2I a ->
    let ra = compile_expr ctx env a in
    emit ctx (Ir.Instr.F2i (d, ra))

(* Address of element [idx] of global [g]: byte arrays use 1-byte
   stride, word/float arrays 4-byte stride. *)
and element_addr ctx env g (gs : Typecheck.gsig) idx =
  let scale = if gs.Typecheck.g_byte then 1 else 4 in
  let base = fresh_i ctx in
  emit ctx (Ir.Instr.La (base, g));
  match fold idx with
  | Int k -> (base, scale * k)
  | idx ->
    let ri = compile_expr ctx env idx in
    let roff =
      if scale = 1 then ri
      else begin
        let r = fresh_i ctx in
        emit ctx (Ir.Instr.Bini (Ir.Instr.Sll, r, ri, 2l));
        r
      end
    in
    let raddr = fresh_i ctx in
    emit ctx (Ir.Instr.Bin (Ir.Instr.Add, raddr, base, roff));
    (raddr, 0)

(* Branch to [target] when [cond]'s truth equals [jump_if]. *)
let rec compile_cond ctx env (cond : expr) ~jump_if ~target : unit =
  match fold cond with
  | Int n -> if n <> 0 = jump_if then emit ctx (Ir.Instr.Jmp target)
  | Not e -> compile_cond ctx env e ~jump_if:(not jump_if) ~target
  | Cmp (op, a, b) when infer ctx env a = TInt ->
    let ra = compile_expr ctx env a in
    let rb = compile_expr ctx env b in
    let op = ir_cmpop op in
    let op = if jump_if then op else negate_cmp op in
    emit ctx (Ir.Instr.Br (op, ra, rb, target))
  | cond ->
    let r = compile_expr ctx env cond in
    emit ctx
      (Ir.Instr.Brz ((if jump_if then Ir.Instr.Ne else Ir.Instr.Eq), r, target))


let rec compile_stmt ctx (env : venv) ~brk ~cont (s : stmt) : venv =
  match s with
  | Decl (x, e) ->
    let ty = infer ctx env e in
    let r = fresh ctx ty in
    compile_into ctx env r e;
    SM.add x (r, ty) env
  | Assign (x, e) ->
    let r, _ = SM.find x env in
    compile_into ctx env r e;
    env
  | Store (g, idx, value) ->
    let rv = compile_expr ctx env value in
    let gs = SM.find g ctx.gsigs in
    let addr, off = element_addr ctx env g gs idx in
    (match (gs.Typecheck.g_ty, gs.Typecheck.g_byte) with
     | (TInt, true) -> emit ctx (Ir.Instr.Sb (rv, addr, off))
     | (TInt, false) -> emit ctx (Ir.Instr.Sw (rv, addr, off))
     | (TFlt, _) -> emit ctx (Ir.Instr.Swf (rv, addr, off)));
    env
  | If (cond, then_, []) ->
    let lend = fresh_label ctx in
    compile_cond ctx env cond ~jump_if:false ~target:lend;
    compile_block ctx env ~brk ~cont then_;
    emit ctx (Ir.Instr.Label lend);
    env
  | If (cond, then_, else_) ->
    let lelse = fresh_label ctx in
    let lend = fresh_label ctx in
    compile_cond ctx env cond ~jump_if:false ~target:lelse;
    compile_block ctx env ~brk ~cont then_;
    emit ctx (Ir.Instr.Jmp lend);
    emit ctx (Ir.Instr.Label lelse);
    compile_block ctx env ~brk ~cont else_;
    emit ctx (Ir.Instr.Label lend);
    env
  | While (cond, body) ->
    let lhead = fresh_label ctx in
    let lend = fresh_label ctx in
    emit ctx (Ir.Instr.Label lhead);
    compile_cond ctx env cond ~jump_if:false ~target:lend;
    compile_block ctx env ~brk:(Some lend) ~cont:(Some lhead) body;
    emit ctx (Ir.Instr.Jmp lhead);
    emit ctx (Ir.Instr.Label lend);
    env
  | For (x, lo, hi, body) ->
    let rx = fresh_i ctx in
    compile_into ctx env rx lo;
    let rhi = compile_expr ctx env hi in
    (* [hi] is evaluated once; if it is a variable, pin the bound in a
       temp so assignments inside the body cannot move it. *)
    let rhi =
      match hi with
      | Var _ ->
        let t = fresh_i ctx in
        emit ctx (Ir.Instr.Mov (t, rhi));
        t
      | _ -> rhi
    in
    let lhead = fresh_label ctx in
    let lcont = fresh_label ctx in
    let lend = fresh_label ctx in
    emit ctx (Ir.Instr.Label lhead);
    emit ctx (Ir.Instr.Br (Ir.Instr.Ge, rx, rhi, lend));
    let env' = SM.add x (rx, TInt) env in
    compile_block ctx env' ~brk:(Some lend) ~cont:(Some lcont) body;
    emit ctx (Ir.Instr.Label lcont);
    emit ctx (Ir.Instr.Bini (Ir.Instr.Add, rx, rx, 1l));
    emit ctx (Ir.Instr.Jmp lhead);
    emit ctx (Ir.Instr.Label lend);
    env
  | Expr (Call (f, args)) when (SM.find f ctx.fsigs).Typecheck.f_ret = None ->
    let regs = List.map (compile_expr ctx env) args in
    emit ctx (Ir.Instr.Call { dst = None; func = f; args = regs });
    env
  | Expr e ->
    ignore (compile_expr ctx env e);
    env
  | Return None ->
    emit ctx (Ir.Instr.Ret None);
    env
  | Return (Some e) ->
    let r = compile_expr ctx env e in
    emit ctx (Ir.Instr.Ret (Some r));
    env
  | Break ->
    (match brk with
     | Some l -> emit ctx (Ir.Instr.Jmp l)
     | None -> invalid_arg "break outside loop");
    env
  | Continue ->
    (match cont with
     | Some l -> emit ctx (Ir.Instr.Jmp l)
     | None -> invalid_arg "continue outside loop");
    env

and compile_block ctx env ~brk ~cont body =
  ignore (List.fold_left (fun env s -> compile_stmt ctx env ~brk ~cont s) env body)

let lower_func ~gsigs ~fsigs (f : func) : Ir.Func.t =
  let tctx =
    {
      Typecheck.globals = gsigs;
      funcs = fsigs;
      fname = f.name;
      f_ret_ty = f.ret;
    }
  in
  let ctx =
    {
      gsigs;
      fsigs;
      tctx;
      next_int = 0;
      next_flt = 0;
      next_label = 0;
      acc = [];
      fname = f.name;
    }
  in
  (* Parameters occupy the first registers of each bank, in order. *)
  let env =
    List.fold_left
      (fun env (x, ty) -> SM.add x (fresh ctx ty, ty) env)
      SM.empty f.params
  in
  let params = List.map (fun (x, _) -> fst (SM.find x env)) f.params in
  compile_block ctx env ~brk:None ~cont:None f.body;
  (* Safety epilogue: the typechecker guarantees non-void bodies always
     return, so the appended return is unreachable; for void functions
     it is the implicit return. *)
  (match f.ret with
   | None -> emit ctx (Ir.Instr.Ret None)
   | Some TInt ->
     let r = fresh_i ctx in
     emit ctx (Ir.Instr.Li (r, 0l));
     emit ctx (Ir.Instr.Ret (Some r))
   | Some TFlt ->
     let r = fresh_f ctx in
     emit ctx (Ir.Instr.Lf (r, 0.0));
     emit ctx (Ir.Instr.Ret (Some r)));
  Ir.Func.make ~eligible:f.eligible ~name:f.name ~params
    ~ret:(Option.map ir_ty f.ret)
    (List.rev ctx.acc)

let lower_global (g : global) : Ir.Prog.global =
  let init =
    match g.init with
    | GZero -> Ir.Prog.Zero
    | GInts a -> Ir.Prog.Int_data a
    | GFlts a -> Ir.Prog.Flt_data a
  in
  let ty = if g.byte then Ir.Ty.I8 else ir_ty g.gty in
  Ir.Prog.global ~init g.gname ty g.size

let lower_program (p : program) : Ir.Prog.t =
  let gsigs, fsigs = Typecheck.ctx_of_program p in
  let funcs = List.map (lower_func ~gsigs ~fsigs) p.funcs in
  Ir.Prog.make ~entry:p.entry ~globals:(List.map lower_global p.globals) funcs

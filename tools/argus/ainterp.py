"""Argus abstract interpreter.

Executes a kernel function symbolically over the interval/polynomial domain:
pointers carry (array, offset-poly), vectors carry a per-lane offset poly
over the distinguished `__lane` symbol, masks carry a shape (all-on,
lane < e, mask-table bits) plus provenance. Loops run one symbolic
iteration plus an exit state; branches fork the state. Every memory access
emits proof obligations discharged by aprover; failures become Violations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dfield
from typing import Dict, List, Optional, Tuple

from apoly import ArrElem, OpTerm, Poly, Sym, pdiv, pmod
from aprover import FactDB, Prover
from acontracts import (ContractError, Fact, KernelContract, ParamSpec,
                        TUContract, ViewContract)
import aparser as A

LANE = Sym("__lane")
MAX_INLINE_DEPTH = 16
MAX_STATES = 48

_TYPE_SIZES = {
    "Scalar": 8, "double": 8, "float": 4, "Index": 4, "int": 4,
    "unsigned": 4, "std::uint64_t": 8, "std::uint32_t": 4,
    "std::uint16_t": 2, "std::uint8_t": 1,
    "std::size_t": 8, "std::int64_t": 8, "__m512d": 64, "__m512": 64,
    "__m256d": 32, "__m128d": 16, "__m256i": 32, "__m128i": 16,
    "__m256": 32, "__m128": 16,
}
_BUILTIN_INTS = {"kZmmDoubles": 8}


@dataclass
class Violation:
    path: str
    line: int
    category: str   # bounds|tail-mask|mask-provenance|packed-stream|
    #               # shift-range|unsupported|contract
    message: str
    kernel: str = ""

    def render(self) -> str:
        k = f" [{self.kernel}]" if self.kernel else ""
        return f"{self.path}:{self.line}: {self.category}{k}: {self.message}"


@dataclass
class ArrayInfo:
    name: str
    extent: Optional[Poly]    # in elements; None = unknown
    esize: int
    kind: str                 # view|param|local|table
    stream: str = ""          # traffic stream name ("" = not counted)
    fkind: str = "int"        # element kind: int|float


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------

class Val:
    pass


class FloatV(Val):
    pass


@dataclass
class FloatVecV(Val):
    width: int = 8


@dataclass
class IntV(Val):
    poly: Poly
    tag: Optional[tuple] = None
    # tags: ("pow2m1", e_poly)          value == (1 << e) - 1
    #       ("shr", word IntV, shift)   word >> shift (mask extraction)
    #       ("maskbyte", src, byte_poly) byte of a mask-table word
    #       ("packedbytes", row_ptr, start) memcpy'd set-bit positions
    #       ("popcount", src IntV)      popcount of a mask byte


@dataclass
class VecV(Val):
    lane: Poly                # offset poly over LANE (int lanes)
    width: int
    esize: int
    tag: Optional[tuple] = None


@dataclass
class MaskV(Val):
    kind: str                 # all|lanelt|bits|const|unknown
    width: int = 8
    expr: Optional[Poly] = None     # lanelt bound e
    word: Optional["IntV"] = None   # bits: the mask byte IntV (with tag)
    const: int = 0
    prov: str = "unknown"     # lanecount|masktable|constdecl|unknown


@dataclass
class PackedState:
    pos: Poly                           # elements consumed since anchor
    win_start: Optional[Poly] = None    # current budget window
    win_budget: Optional[Poly] = None
    win_tag: Optional[tuple] = None


@dataclass
class PtrV(Val):
    array: str
    off: Poly
    packed: Optional[PackedState] = None


@dataclass
class ViewV(Val):
    prefix: str
    contract: ViewContract


@dataclass
class TypeV(Val):
    name: str                 # canonical type bound to a `class V` parameter


@dataclass
class TableV(Val):
    name: str
    sem: str                  # "setbits"


@dataclass
class TableRowV(Val):
    table: str
    sem: str
    word: "IntV"              # the row selector (mask byte)


class NullV(Val):
    pass


class State:
    def __init__(self, env=None, db=None):
        self.env: Dict[str, Val] = env if env is not None else {}
        self.db: FactDB = db if db is not None else FactDB()
        self.flow: Optional[str] = None      # return|break|continue
        self.retval: Optional[Val] = None
        self.grl_seen: List[Tuple[str, Poly]] = []   # (grl array, index poly)
        self.types: Dict[str, str] = {}      # declared var -> type name

    def fork(self) -> "State":
        st = State(dict(self.env), self.db.copy())
        st.grl_seen = list(self.grl_seen)
        st.types = dict(self.types)
        return st


class Unsupported(Exception):
    def __init__(self, line: int, msg: str):
        super().__init__(msg)
        self.line = line
        self.msg = msg


def _p(v: Val, line: int) -> Poly:
    if isinstance(v, IntV):
        return v.poly
    raise Unsupported(line, f"expected integer value, got {type(v).__name__}")


def _is_float(v: Val) -> bool:
    return isinstance(v, (FloatV, FloatVecV))


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------

class Interp:
    def __init__(self, tu: A.TUnit, tuc: TUContract,
                 views: Dict[str, ViewContract],
                 field_types: Dict[str, Dict[str, Tuple[str, int]]]):
        self.tu = tu
        self.tuc = tuc
        self.views = views
        self.field_types = field_types   # view -> field -> (kind,esize,fkind)
        self.pinned: Dict[str, int] = {}   # "a.c" -> pinned constant
        self.funcs = {f.name: f for f in tu.funcs}
        self.violations: List[Violation] = []
        self.reads: Dict[str, int] = {}
        self.writes: Dict[str, int] = {}
        self.arrays: Dict[str, ArrayInfo] = {}
        self.maskbits: List[Tuple[str, str, Poly]] = []  # mask arr, col arr, n
        self.mask_words: set = set()        # arrays whose elems are mask words
        self.packed_arrays: set = set()     # arrays with packed discipline
        self.elem_div_sym: Dict[str, Poly] = {}
        self.groups: List[Tuple[str, str, str, str]] = []
        self.kernel = ""
        self._fresh = itertools.count()
        self._depth = 0

    # -- small helpers ------------------------------------------------------
    def fresh(self, hint: str) -> Poly:
        return Poly.sym(f"{hint}%{next(self._fresh)}")

    def fail(self, line: int, cat: str, msg: str) -> None:
        self.violations.append(
            Violation(self.tu.path, line, cat, msg, self.kernel))

    def record(self, arr: ArrayInfo, esize: int, write: bool) -> None:
        if arr.kind in ("local", "table") or not arr.stream:
            return
        book = self.writes if write else self.reads
        book[arr.stream] = max(book.get(arr.stream, 0), esize)

    # -- annotation expression -> Poly --------------------------------------
    def annot_poly(self, e: A.Expr, scope: Dict[str, Poly],
                   prefix: str, where: str) -> Poly:
        if isinstance(e, A.Num):
            return Poly.const(e.value)
        if isinstance(e, A.Ident):
            if e.name in scope:
                return scope[e.name]
            return Poly.sym(prefix + e.name)
        if isinstance(e, A.Member):
            d = self._dotted(e, where)
            if d in scope:
                return scope[d]
            return Poly.sym(prefix + d)
        if isinstance(e, A.Subscript):
            arr = prefix + self._dotted(e.base, where)
            return Poly.atom(ArrElem(
                arr, self.annot_poly(e.index, scope, prefix, where)))
        if isinstance(e, A.Binary):
            a = self.annot_poly(e.lhs, scope, prefix, where)
            b = self.annot_poly(e.rhs, scope, prefix, where)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "/":
                return pdiv(a, b)
            if e.op == "%":
                return pmod(a, b)
        if isinstance(e, A.Unary) and e.op == "-":
            return -self.annot_poly(e.operand, scope, prefix, where)
        if isinstance(e, A.Call):
            args = [self.annot_poly(x, scope, prefix, where) for x in e.args]
            if e.fn in ("ceil_div", "ceildiv"):
                return Poly.atom(OpTerm("ceildiv", (args[0], args[1])))
            if e.fn == "popcount":
                return Poly.atom(OpTerm("popcount", (args[0],)))
            if e.fn == "len":
                nm = e.args[0]
                arr = prefix + self._dotted(nm, where)
                info = self.arrays.get(arr)
                if info is not None and info.extent is not None:
                    return info.extent
                return Poly.sym(f"__len({arr})")
        raise ContractError(where, f"unsupported annotation expr {e}")

    def _dotted(self, e: A.Expr, where: str) -> str:
        if isinstance(e, A.Ident):
            return e.name
        if isinstance(e, A.Member):
            return self._dotted(e.base, where) + "." + e.name
        raise ContractError(where, "expected a (dotted) name")

    # -- contract instantiation ---------------------------------------------
    def bind_view(self, st: State, prefix: str, vc: ViewContract,
                  const_fields: Dict[str, int]) -> Dict[str, Poly]:
        """Instantiate a view contract under `prefix` ("a."). Returns the
        scope mapping field/let names to polys."""
        ftypes = self.field_types.get(vc.name, {})
        scope: Dict[str, Poly] = {}
        where = f"{self.tu.path}:<contract {vc.name}>"
        for fname, (kind, esize, fkind) in ftypes.items():
            if kind == "int":
                if fname in const_fields:
                    scope[fname] = Poly.const(const_fields[fname])
                    self.pinned[prefix + fname] = const_fields[fname]
                else:
                    scope[fname] = Poly.sym(prefix + fname)
        for name, expr in vc.lets:
            scope[name] = self.annot_poly(expr, scope, prefix, where)
        for fname, (kind, esize, fkind) in ftypes.items():
            if kind != "ptr":
                continue
            ext = None
            if fname in vc.extents:
                ext = self.annot_poly(vc.extents[fname], scope, prefix, where)
            arr = prefix + fname
            self.arrays[arr] = ArrayInfo(arr, ext, esize, "view",
                                         stream=fname, fkind=fkind)
        for fact in vc.facts:
            self._apply_fact(st, fact, scope, prefix, where)
        for member, vtype in vc.nested.items():
            sub = self.views.get(vtype)
            if sub is None:
                raise ContractError(where, f"unknown nested view {vtype}")
            subscope = self.bind_view(st, prefix + member + ".", sub, {})
            for k, v in subscope.items():
                scope[member + "." + k] = v
        return scope

    def _apply_fact(self, st: State, fact: Fact, scope: Dict[str, Poly],
                    prefix: str, where: str) -> None:
        if fact.kind == "cmp":
            op, lhs, rhs = fact.args
            a = self.annot_poly(lhs, scope, prefix, where)
            b = self.annot_poly(rhs, scope, prefix, where)
            if op == "==":
                st.db.add_eq(a, b)
            elif op == "<=":
                st.db.add_le(a, b)
            elif op == "<":
                st.db.add_lt(a, b)
            elif op == ">=":
                st.db.add_le(b, a)
            elif op == ">":
                st.db.add_lt(b, a)
        elif fact.kind == "monotone":
            st.db.monotone.add(prefix + fact.args[0])
        elif fact.kind == "elem":
            arr, lo, hi, incl = fact.args
            lop = self.annot_poly(lo, scope, prefix, where)
            hip = self.annot_poly(hi, scope, prefix, where)
            if incl:
                hip = hip + 1
            st.db.elem_range[prefix + arr] = (lop, hip)
        elif fact.kind == "divides_elem":
            c, arr = fact.args
            st.db.elem_divides[prefix + arr] = c
        elif fact.kind == "divides_elem_sym":
            divisor, arr = fact.args
            self.elem_div_sym[prefix + arr] = \
                self.annot_poly(divisor, scope, prefix, where)
        elif fact.kind == "divides":
            c, expr = fact.args
            st.db.add_divides(c, self.annot_poly(expr, scope, prefix, where))
        elif fact.kind == "stride":
            arr, vals = fact.args
            st.db.stride[prefix + arr] = vals
        elif fact.kind == "maskbit":
            marr, carr, bound = fact.args
            self.maskbits.append(
                (prefix + marr, prefix + carr,
                 self.annot_poly(bound, scope, prefix, where)))
            self.mask_words.add(prefix + marr)
        elif fact.kind == "maskword":
            self.mask_words.add(prefix + fact.args[0])
        elif fact.kind == "packed":
            self.packed_arrays.add(prefix + fact.args[0])
        elif fact.kind == "group":
            perm, gb, grl, rowptr = fact.args
            self.groups.append((prefix + perm, prefix + gb, prefix + grl,
                                prefix + rowptr))
        else:
            raise ContractError(where, f"unhandled fact kind {fact.kind}")

    # -- kernel entry --------------------------------------------------------
    def analyze_kernel(self, func: A.Func, kc: KernelContract) -> None:
        self.kernel = kc.fn
        st = State()
        where = kc.where or f"{self.tu.path}:{func.line}"
        declared = {p.name for p in kc.params}
        for fp in func.params:
            if fp.name not in declared:
                self.fail(func.line, "contract",
                          f"parameter {fp.name!r} missing an argus-param")
                return
        # Pre-scan for `<field> == <const>` requires so view facts can be
        # instantiated with the constant substituted (makes ceildiv(m, c)
        # linearizable when c is pinned).
        const_fields: Dict[str, int] = {}
        for fact in kc.requires:
            if fact.kind == "cmp" and fact.args[0] == "==":
                lhs, rhs = fact.args[1], fact.args[2]
                if isinstance(lhs, A.Ident) and isinstance(rhs, A.Num):
                    const_fields[lhs.name] = rhs.value
        scope: Dict[str, Poly] = {}
        view_prefixes: List[Tuple[str, str]] = []
        by_name = {fp.name: fp for fp in func.params}
        for ps in kc.params:
            fp = by_name.get(ps.name)
            if fp is None:
                self.fail(func.line, "contract",
                          f"argus-param {ps.name!r} not in signature")
                return
            if ps.role == "view":
                vc = self.views.get(ps.view_type)
                if vc is None:
                    self.fail(func.line, "contract",
                              f"unknown view type {ps.view_type}")
                    return
                prefix = ps.name + "."
                sub = self.bind_view(st, prefix, vc, const_fields)
                for k, v in sub.items():
                    scope.setdefault(k, v)
                st.env[ps.name] = ViewV(prefix, vc)
                view_prefixes.append((ps.name, prefix))
            elif ps.role == "int":
                st.env[ps.name] = IntV(Poly.sym(ps.name))
                scope.setdefault(ps.name, Poly.sym(ps.name))
        # Second pass: pointer params (their extents may reference view
        # fields or other params, e.g. `rows : in extent m elem [0, len(y))`).
        for ps in kc.params:
            if ps.role not in ("in", "out"):
                continue
            fp = by_name[ps.name]
            esize = _TYPE_SIZES.get(fp.ptype, 8)
            fkind = "float" if fp.ptype in ("Scalar", "double",
                                            "float") else "int"
            ext = None
            if ps.extent is not None:
                ext = self.annot_poly(ps.extent, scope, "", where)
            else:
                ext = Poly.sym(f"__len({ps.name})")
            self.arrays[ps.name] = ArrayInfo(ps.name, ext, esize, "param",
                                             stream=ps.name, fkind=fkind)
            st.env[ps.name] = PtrV(ps.name, Poly.const(0))
            scope.setdefault("len(%s)" % ps.name, ext)
        for ps in kc.params:
            if ps.elem_lo is not None:
                lo = self.annot_poly(ps.elem_lo, scope, "", where)
                hi = self.annot_poly(ps.elem_hi, scope, "", where)
                if ps.elem_hi_incl:
                    hi = hi + 1
                st.db.elem_range[ps.name] = (lo, hi)
        req_prefix = view_prefixes[0][1] if view_prefixes else ""
        for fact in kc.requires:
            self._apply_fact(st, fact, scope, req_prefix, where)
        for name, val in _BUILTIN_INTS.items():
            st.env.setdefault(name, IntV(Poly.const(val)))
        for td in self.tu.decls:
            if td.name in self.tuc.tables:
                st.env[td.name] = TableV(td.name, self.tuc.tables[td.name])
        try:
            self.exec_block(func.body, [st])
        except Unsupported as ex:
            self.fail(ex.line, "unsupported", ex.msg)

    # -- access checking ----------------------------------------------------
    def lane_db(self, st: State, width: int,
                bound: Optional[Poly]) -> FactDB:
        db = st.db.copy()
        lane = Poly.atom(LANE)
        db.add_ge0(lane)
        db.add_lt(lane, Poly.const(width))
        if bound is not None:
            db.add_lt(lane, bound)
        return db

    def check_ptr(self, st: State, v: Val, width: int, line: int,
                  write: bool, lane_bound: Optional[Poly] = None,
                  what: str = "access") -> None:
        """Contiguous access of `width` elements at pointer v. lane_bound
        (from a lane-count mask) restricts the touched lanes to < bound."""
        if not isinstance(v, PtrV):
            raise Unsupported(line, f"{what}: not a pointer")
        if isinstance(v, PtrV) and v.packed is not None:
            self._check_packed(st, v, width, line, lane_bound)
            info = self.arrays.get(v.array)
            if info is not None:
                self.record(info, info.esize, write)
            return
        info = self.arrays.get(v.array)
        if info is None:
            raise Unsupported(line, f"{what}: unknown array {v.array}")
        self.record(info, info.esize, write)
        pr = Prover(st.db)
        if not pr.prove_ge0(v.off):
            self.fail(line, "bounds",
                      f"cannot prove {v.array}[{v.off}] >= 0")
            return
        if info.extent is None:
            return
        if lane_bound is None:
            if not self._fits(st.db, v.off + width, info.extent):
                self.fail(line, "bounds",
                          f"cannot prove {v.array}[{v.off} + {width}] "
                          f"<= extent {info.extent}")
        else:
            db = self.lane_db(st, width, lane_bound)
            if not Prover(db).prove_lt(v.off + Poly.atom(LANE), info.extent):
                self.fail(line, "tail-mask",
                          f"masked lanes of {v.array}[{v.off} + lane] "
                          f"not provably within extent {info.extent}")

    def _fits(self, db: FactDB, end: Poly, extent: Poly) -> bool:
        if Prover(db).prove_le(end, extent):
            return True
        # Scaled-extent rule: idx = div(p, d), extent = div(q, d) with a
        # symbolic divisor d. Sound when p in [0, q) and d | q.
        em = list(extent.monomials())
        nm = list((end - 1).monomials())
        if len(em) == 1 and len(nm) == 1 and extent.coeff(()) == 0 \
                and (end - 1).coeff(()) == 0:
            ea, na = em[0], nm[0]
            if (len(ea) == 1 and len(na) == 1 and extent.coeff(ea) == 1
                    and (end - 1).coeff(na) == 1):
                et, nt = ea[0][0], na[0][0]
                if (isinstance(et, OpTerm) and isinstance(nt, OpTerm)
                        and et.op == "div" and nt.op == "div"
                        and et.args[1].key() == nt.args[1].key()):
                    q, p = et.args[0], nt.args[0]
                    div_ok = False
                    qm = list(q.monomials())
                    if len(qm) == 1 and q.coeff(()) == 0:
                        qa = qm[0]
                        if len(qa) == 1 and isinstance(qa[0][0], ArrElem) \
                                and q.coeff(qa) == 1:
                            reg = self.elem_div_sym.get(qa[0][0].arr)
                            div_ok = (reg is not None
                                      and reg.key() == et.args[1].key())
                    pr = Prover(db)
                    if div_ok and pr.prove_ge0(p) and pr.prove_lt(p, q):
                        return True
        return False

    def check_lane_read(self, st: State, base: PtrV, idx_lane: Poly,
                        width: int, line: int, write: bool,
                        lane_bound: Optional[Poly],
                        what: str = "gather") -> None:
        """Gather/scatter: per-lane index poly over LANE added to base."""
        info = self.arrays.get(base.array)
        if info is None:
            raise Unsupported(line, f"{what}: unknown array {base.array}")
        self.record(info, info.esize, write)
        f = base.off + idx_lane
        db = self.lane_db(st, width, lane_bound)
        pr = Prover(db)
        if not pr.prove_ge0(f):
            self.fail(line, "bounds",
                      f"{what}: cannot prove {base.array}[{f}] >= 0")
            return
        if info.extent is not None and not pr.prove_lt(f, info.extent):
            self.fail(line, "bounds",
                      f"{what}: cannot prove {base.array}[{f}] < "
                      f"extent {info.extent}")

    def _check_packed(self, st: State, v: PtrV, width: int, line: int,
                      lane_bound: Optional[Poly]) -> None:
        ps = v.packed
        if ps.win_start is None:
            self.fail(line, "packed-stream",
                      f"read of packed stream {v.array} outside any "
                      "mask-byte budget window")
            return
        pr = Prover(st.db)
        ok = (pr.prove_ge0(v.off - ps.win_start) and
              pr.prove_le(v.off + width, ps.win_start + ps.win_budget))
        if not ok:
            self.fail(line, "packed-stream",
                      f"packed read {v.array}[{v.off}..+{width}] exceeds "
                      f"budget {ps.win_budget} at window {ps.win_start}")

    # -- expression evaluation ----------------------------------------------
    # eval() returns a list of (state, value) pairs: ternaries and inlined
    # calls can fork the path mid-expression.
    def eval(self, e: A.Expr, st: State) -> List[Tuple[State, Val]]:
        if isinstance(e, A.Num):
            return [(st, IntV(Poly.const(e.value)))]
        if isinstance(e, A.Ident):
            if e.name == "nullptr":
                return [(st, NullV())]
            if e.name in st.env:
                return [(st, st.env[e.name])]
            if e.name in _BUILTIN_INTS:
                return [(st, IntV(Poly.const(_BUILTIN_INTS[e.name])))]
            raise Unsupported(e.line, f"unknown identifier {e.name!r}")
        if isinstance(e, A.Member):
            return self._eval_member(e, st)
        if isinstance(e, A.Subscript):
            out = []
            for st1, base in self.eval(e.base, st):
                for st2, idx in self.eval(e.index, st1):
                    out.append(self._subscript_read(st2, base, idx, e.line))
            return out
        if isinstance(e, A.Call):
            return self._eval_call(e, st)
        if isinstance(e, A.Unary):
            return self._eval_unary(e, st)
        if isinstance(e, A.Binary):
            if e.op in ("&&", "||", "<", "<=", ">", ">=", "==", "!="):
                # Condition used as a value (rare): opaque int.
                return [(st, IntV(self.fresh("cmp")))]
            out = []
            for st1, a in self.eval(e.lhs, st):
                for st2, b in self.eval(e.rhs, st1):
                    out.append((st2, self._binop(st2, e.op, a, b, e.line)))
            return out
        if isinstance(e, A.Ternary):
            out = []
            for st1 in self.assume(st.fork(), e.cond, True):
                out.extend(self.eval(e.then, st1))
            for st2 in self.assume(st.fork(), e.cond, False):
                out.extend(self.eval(e.other, st2))
            if not out:   # condition decided both ways infeasible? keep going
                raise Unsupported(e.line, "infeasible ternary")
            return out
        if isinstance(e, A.Cast):
            out = []
            for st1, v in self.eval(e.operand, st):
                out.append((st1, self._cast(v, e.ctype, e.line)))
            return out
        if isinstance(e, A.Sizeof):
            key = e.arg if e.arg in _TYPE_SIZES else st.types.get(e.arg, "")
            sz = _TYPE_SIZES.get(key)
            if sz is None:
                raise Unsupported(e.line, f"sizeof({e.arg})")
            return [(st, IntV(Poly.const(sz)))]
        raise Unsupported(getattr(e, "line", 0),
                          f"unsupported expression {type(e).__name__}")

    def _eval_member(self, e: A.Expr, st: State) -> List[Tuple[State, Val]]:
        outs = []
        for st1, base in self.eval(e.base, st):
            if not isinstance(base, ViewV):
                raise Unsupported(e.line, f"member access .{e.name} on "
                                  f"{type(base).__name__}")
            ft = self.field_types.get(base.contract.name, {}).get(e.name)
            if ft is None:
                if e.name in base.contract.nested:
                    sub = self.views[base.contract.nested[e.name]]
                    outs.append((st1, ViewV(base.prefix + e.name + ".", sub)))
                    continue
                raise Unsupported(e.line, f"unknown view field {e.name}")
            kind, esize, fkind = ft
            full = base.prefix + e.name
            if kind == "int":
                c = self.pinned.get(full)
                poly = Poly.const(c) if c is not None else Poly.sym(full)
                outs.append((st1, IntV(poly)))
            else:
                outs.append((st1, PtrV(full, Poly.const(0))))
        return outs

    def _subscript_read(self, st: State, base: Val, idx: Val,
                        line: int) -> Tuple[State, Val]:
        if isinstance(base, TableV):
            if not isinstance(idx, IntV):
                raise Unsupported(line, "table subscript")
            return st, TableRowV(base.name, base.sem, idx)
        if not isinstance(base, PtrV):
            raise Unsupported(line, f"subscript on {type(base).__name__}")
        off = base.off + _p(idx, line)
        ptr = PtrV(base.array, off, base.packed)
        ptr.meta = getattr(base, "meta", None)
        self.check_ptr(st, ptr, 1, line, write=False)
        return st, self._load_elem(st, ptr, line)

    def _load_elem(self, st: State, ptr: PtrV, line: int) -> Val:
        """Value of a 1-element load at ptr (bounds already checked)."""
        meta = getattr(ptr, "meta", None)
        if meta is not None and meta[0] == "tablerow":
            return self._setbit_value(st, meta[2], line)
        info = self.arrays.get(ptr.array)
        if info is not None and info.fkind == "float":
            return FloatV()
        val = IntV(Poly.atom(ArrElem(ptr.array, ptr.off)))
        if ptr.array in self.mask_words:
            val.tag = ("maskword", ptr.array, ptr.off)
        if info is not None and info.kind in ("view", "param"):
            self._group_hook(st, ptr.array, ptr.off)
        return val

    def _group_hook(self, st: State, arr: str, idx: Poly) -> None:
        """group(perm, gb, grl, rowptr): reading grl[g] records g; reading
        perm[p] with a provable gb[g] <= p < gb[g+1] adds
        rowptr[perm[p]+1] == rowptr[perm[p]] + grl[g]."""
        for perm, gb, grl, rowptr in self.groups:
            if arr == grl:
                if all(idx.key() != k for _a, g in st.grl_seen
                       for k in [g.key()]):
                    st.grl_seen.append((grl, idx))
            elif arr == perm:
                pe = Poly.atom(ArrElem(perm, idx))
                lane_in = LANE.key() in {
                    a.key() if isinstance(a, Sym) else None
                    for a in idx.atoms()}
                db = self.lane_db(st, 8, None) if lane_in else st.db
                pr = Prover(db)
                for _grl_arr, g in st.grl_seen:
                    lo = Poly.atom(ArrElem(gb, g))
                    hi = Poly.atom(ArrElem(gb, g + 1))
                    if pr.prove_ge0(idx - lo) and pr.prove_lt(idx, hi):
                        rp0 = Poly.atom(ArrElem(rowptr, pe))
                        rp1 = Poly.atom(ArrElem(rowptr, pe + 1))
                        ln = Poly.atom(ArrElem(grl, g))
                        st.db.add_eq(rp1, rp0 + ln)

    def _setbit_value(self, st: State, word: IntV, line: int) -> Val:
        """Reading a set-bit-position table row: fresh value in [0,8) plus
        the maskbit guarantee if the row selector is a genuine mask byte."""
        s = self.fresh("setbit")
        st.db.add_ge0(s)
        st.db.add_lt(s, Poly.const(8))
        self._maskbit_facts(st, word, s)
        return IntV(s, tag=("setbit", word))

    def _maskbit_facts(self, st: State, word: IntV, s: Poly) -> None:
        tag = word.tag
        if tag is None:
            return
        if tag[0] in ("maskbyte", "maskbyte-sub"):
            marr, midx = tag[1], tag[2]
            for m_arr, c_arr, bound in self.maskbits:
                if m_arr == marr:
                    col = Poly.atom(ArrElem(c_arr, midx))
                    st.db.add_ge0(col + s)
                    st.db.add_lt(col + s, bound)

    # -- operators -----------------------------------------------------------
    def _binop(self, st: State, op: str, a: Val, b: Val, line: int) -> Val:
        if isinstance(a, PtrV) and isinstance(b, IntV) and op in ("+", "-"):
            d = b.poly if op == "+" else -b.poly
            newoff = a.off + d
            packed = a.packed
            if (packed is None and a.array in self.packed_arrays
                    and op == "+" and self._is_ptr_anchor(b.poly)):
                packed = PackedState(pos=newoff)
            out = PtrV(a.array, newoff, packed)
            out.meta = getattr(a, "meta", None)
            return out
        if isinstance(b, PtrV) and isinstance(a, IntV) and op == "+":
            return self._binop(st, op, b, a, line)
        if _is_float(a) or _is_float(b):
            return FloatV()
        if isinstance(a, VecV) and isinstance(b, IntV):
            if op in ("+", "-"):
                d = b.poly if op == "+" else -b.poly
                return VecV(a.lane + d, a.width, a.esize)
        if not isinstance(a, IntV) or not isinstance(b, IntV):
            raise Unsupported(line, f"binop {op} on "
                              f"{type(a).__name__}/{type(b).__name__}")
        pa, pb = a.poly, b.poly
        if op == "+":
            return IntV(pa + pb)
        if op == "-":
            if a.tag and a.tag[0] == "pow2" and pb.is_const() \
                    and pb.const_value() == 1:
                return IntV(pa - 1, tag=("pow2m1", a.tag[1]))
            return IntV(pa - pb)
        if op == "*":
            return IntV(pa * pb)
        if op == "/":
            return IntV(pdiv(pa, pb))
        if op == "%":
            return IntV(pmod(pa, pb))
        if op == "<<":
            self._check_shift(st, a, pb, line)
            if pa.is_const() and pb.is_const():
                return IntV(Poly.const(pa.const_value() << pb.const_value()))
            if pa.is_const() and pa.const_value() == 1:
                return IntV(Poly.atom(OpTerm("shl", (pa, pb))),
                            tag=("pow2", pb))
            return IntV(Poly.atom(OpTerm("shl", (pa, pb))))
        if op == ">>":
            self._check_shift(st, a, pb, line)
            out = IntV(Poly.atom(OpTerm("shr", (pa, pb))))
            if a.tag and a.tag[0] == "maskword":
                out.tag = ("shr", a.tag[1], a.tag[2], pb)
            return out
        if op == "&":
            if pb.is_const() and pb.const_value() == 0xFF and a.tag:
                if a.tag[0] == "shr":
                    v = self._fresh_byte(st)
                    return IntV(v, tag=("maskbyte", a.tag[1], a.tag[2],
                                        a.tag[3]))
                if a.tag[0] == "maskword":
                    v = self._fresh_byte(st)
                    return IntV(v, tag=("maskbyte", a.tag[1], a.tag[2],
                                        Poly.const(0)))
            if a.tag and a.tag[0] in ("maskbyte", "maskbyte-sub"):
                # bits &= bits - 1 and friends: result is a submask.
                v = self.fresh("sub")
                st.db.add_ge0(v)
                st.db.add_le(v, pa)
                return IntV(v, tag=("maskbyte-sub",) + tuple(a.tag[1:]))
            return IntV(self.fresh("and"))
        if op in ("|", "^"):
            return IntV(self.fresh("bit"))
        raise Unsupported(line, f"operator {op}")

    def _fresh_byte(self, st: State) -> Poly:
        v = self.fresh("byte")
        st.db.add_ge0(v)
        st.db.add_le(v, Poly.const(255))
        return v

    def _is_ptr_anchor(self, p: Poly) -> bool:
        monos = list(p.monomials())
        if p.coeff(()) != 0 or len(monos) != 1 or p.coeff(monos[0]) != 1:
            return False
        m = monos[0]
        return len(m) == 1 and isinstance(m[0][0], ArrElem)

    def _check_shift(self, st: State, word: IntV, sh: Poly, line: int):
        limit = 31
        if word.tag and word.tag[0] == "maskword":
            info = self.arrays.get(word.tag[1])
            if info is not None and info.esize == 8:
                limit = 63
        pr = Prover(st.db)
        if not (pr.prove_ge0(sh) and pr.prove_le(sh, Poly.const(limit))):
            self.fail(line, "shift-range",
                      f"shift amount {sh} not provably in [0, {limit}]")

    def _cast(self, v: Val, ctype: str, line: int) -> Val:
        if "__mmask" in ctype:
            width = 16 if "16" in ctype else 8
            return self._to_mask(v, width)
        return v

    def _to_mask(self, v: Val, width: int) -> MaskV:
        if isinstance(v, MaskV):
            return v
        if isinstance(v, IntV):
            if v.tag and v.tag[0] == "pow2m1":
                return MaskV("lanelt", width, expr=v.tag[1], prov="lanecount")
            if v.tag and v.tag[0] in ("shr", "maskbyte", "maskbyte-sub"):
                return MaskV("bits", width, word=v, prov="masktable")
            if v.poly.is_const():
                return MaskV("const", width, const=v.poly.const_value(),
                             prov="constdecl")
        return MaskV("unknown", width)

    def _mask_of(self, v: Val, width: int, line: int,
                 what: str) -> MaskV:
        m = self._to_mask(v, width) if not isinstance(v, MaskV) else v
        if m.prov == "unknown":
            self.fail(line, "mask-provenance",
                      f"{what}: mask has no provable provenance "
                      "(not derived from lane counts or mask tables)")
        return m

    def _lane_bound(self, m: MaskV) -> Optional[Poly]:
        """Upper bound B such that all ON lanes are < B (None = width)."""
        if m.kind == "lanelt":
            return m.expr
        if m.kind == "const":
            return Poly.const(m.const.bit_length())
        return None

    # -- unary ---------------------------------------------------------------
    def _eval_unary(self, e: A.Unary, st: State) -> List[Tuple[State, Val]]:
        if e.op in ("++", "--"):
            if not isinstance(e.operand, A.Ident):
                raise Unsupported(e.line, f"{e.op} on non-variable")
            name = e.operand.name
            old = st.env.get(name)
            if old is None:
                raise Unsupported(e.line, f"{e.op} on unknown {name}")
            delta = 1 if e.op == "++" else -1
            if isinstance(old, IntV):
                new = IntV(old.poly + delta)
            elif isinstance(old, PtrV):
                new = self._advance_ptr(st, old, IntV(Poly.const(delta)),
                                        e.line)
            else:
                raise Unsupported(e.line, f"{e.op} on {type(old).__name__}")
            st.env[name] = new
            return [(st, new if not e.postfix else old)]
        out = []
        for st1, v in self.eval(e.operand, st):
            if e.op == "-":
                out.append((st1, FloatV() if _is_float(v)
                            else IntV(-_p(v, e.line))))
            elif e.op == "*":
                if not isinstance(v, PtrV):
                    raise Unsupported(e.line, "deref of non-pointer")
                self.check_ptr(st1, v, 1, e.line, write=False)
                out.append((st1, self._load_elem(st1, v, e.line)))
            elif e.op in ("~", "!"):
                out.append((st1, IntV(self.fresh("un"))))
            else:
                raise Unsupported(e.line, f"unary {e.op}")
        return out

    def _advance_ptr(self, st: State, p: PtrV, amt: IntV, line: int) -> PtrV:
        """p += amt, enforcing packed-stream advance discipline."""
        newoff = p.off + amt.poly
        if p.packed is None:
            out = PtrV(p.array, newoff)
            out.meta = getattr(p, "meta", None)
            return out
        ps = p.packed
        if ps.win_start is None:
            return PtrV(p.array, newoff, PackedState(pos=newoff))
        endp = ps.win_start + ps.win_budget
        if Prover(st.db).prove_eq(newoff, endp):
            return PtrV(p.array, newoff, PackedState(pos=newoff))
        if Prover(st.db).prove_le(newoff, endp):
            # partial advance inside the window (scalar *v++ consumption)
            return PtrV(p.array, newoff, PackedState(
                pos=newoff, win_start=ps.win_start,
                win_budget=ps.win_budget, win_tag=ps.win_tag))
        self.fail(line, "packed-stream",
                  f"pointer into {p.array} advanced past the mask-byte "
                  f"budget (to {newoff}, window ends at {endp})")
        return PtrV(p.array, newoff, PackedState(pos=newoff))

    # -- calls ---------------------------------------------------------------
    def _eval_args(self, st: State,
                   exprs) -> List[Tuple[State, List[Val]]]:
        outs: List[Tuple[State, List[Val]]] = [(st, [])]
        for ex in exprs:
            nxt = []
            for s, vals in outs:
                for s2, v in self.eval(ex, s):
                    nxt.append((s2, vals + [v]))
            outs = nxt
        return outs

    def _eval_call(self, e: A.Call, st: State) -> List[Tuple[State, Val]]:
        name = e.fn
        if e.method_of is not None:
            if name == "data":
                out = []
                for st1, recv in self.eval(e.method_of, st):
                    if not isinstance(recv, TableRowV):
                        raise Unsupported(e.line, ".data() on non-table-row")
                    arr = "@" + recv.table
                    self.arrays.setdefault(arr, ArrayInfo(
                        arr, Poly.const(8), 1, "table"))
                    p = PtrV(arr, Poly.const(0))
                    p.meta = ("tablerow", recv.sem, recv.word)
                    out.append((st1, p))
                return out
            raise Unsupported(e.line, f"method call .{name}()")
        if name == "_mm_prefetch":          # hint only; never faults
            return [(st, NullV())]
        if name in ("std::memcpy", "memcpy"):
            return self._memcpy(e, st)
        if name == "std::is_same_v":
            a, b = (self._resolve_type(t, st, e.line) for t in e.targs)
            return [(st, IntV(Poly.const(1 if a.name == b.name else 0)))]
        if name.startswith(("_mm512_", "_mm256_", "_mm_")):
            outs = []
            for st1, vals in self._eval_args(st, e.args):
                outs.append((st1, self._intrinsic(st1, name, vals, e.line)))
            return outs
        if name in ("std::popcount", "std::countr_zero"):
            outs = []
            for st1, (v,) in self._eval_args(st, e.args):
                outs.append((st1, self._bit_builtin(st1, name, v, e.line)))
            return outs
        if name in ("std::min", "std::max"):
            op = "min" if name.endswith("min") else "max"
            outs = []
            for st1, (a, b) in self._eval_args(st, e.args):
                r = Poly.atom(OpTerm(op, (_p(a, e.line), _p(b, e.line))))
                outs.append((st1, IntV(r)))
            return outs
        fn = self.funcs.get(name)
        if fn is not None and fn.body is not None:
            return self._inline_call(e, fn, st)
        raise Unsupported(e.line, f"call to unknown function {name!r}")

    def _memcpy(self, e: A.Call, st: State) -> List[Tuple[State, Val]]:
        dst, src, size = e.args
        if not (isinstance(dst, A.Unary) and dst.op == "&"
                and isinstance(dst.operand, A.Ident)):
            raise Unsupported(e.line, "memcpy to non-&var destination")
        target = dst.operand.name
        outs = []
        for st1, (sv, zv) in self._eval_args(st, [src, size]):
            if not isinstance(sv, PtrV):
                raise Unsupported(e.line, "memcpy from non-pointer")
            nbytes = _p(zv, e.line)
            if not nbytes.is_const():
                raise Unsupported(e.line, "memcpy with non-constant size")
            info = self.arrays.get(sv.array)
            esize = info.esize if info else 1
            width = max(1, nbytes.const_value() // esize)
            self.check_ptr(st1, sv, width, e.line, write=False)
            word = IntV(self.fresh("mem"))
            meta = getattr(sv, "meta", None)
            if meta is not None and meta[0] == "tablerow":
                word.tag = ("packedbytes", meta[2], sv.off, width)
            st1.env[target] = word
            outs.append((st1, NullV()))
        return outs

    def _bit_builtin(self, st: State, name: str, v: Val,
                     line: int) -> Val:
        if isinstance(v, MaskV):
            if v.kind == "bits" and v.word is not None:
                v = v.word
            elif v.kind == "lanelt" and v.expr is not None:
                v = IntV(v.expr) if name.endswith("popcount") else \
                    IntV(Poly.const(0))
                if name.endswith("popcount"):
                    return v
        if not isinstance(v, IntV):
            raise Unsupported(line, f"{name} on {type(v).__name__}")
        if name.endswith("popcount"):
            out = IntV(Poly.atom(OpTerm("popcount", (v.poly,))),
                       tag=("popcount", v))
            st.db.add_ge0(out.poly)
            st.db.add_le(out.poly, Poly.const(8))
            self._open_windows(st, out)
            return out
        # countr_zero of a mask byte: position of the lowest set bit.
        return self._setbit_value(st, v, line)

    def _open_windows(self, st: State, cnt: IntV) -> None:
        """A popcount of a mask byte budgets the packed streams: any packed
        pointer without an open window gets [off, off+cnt)."""
        if not (cnt.tag and cnt.tag[0] == "popcount"
                and cnt.tag[1].tag and str(cnt.tag[1].tag[0]).startswith(
                    ("maskbyte", "shr", "maskword"))):
            return
        for nm, v in list(st.env.items()):
            if isinstance(v, PtrV) and v.packed is not None \
                    and v.packed.win_start is None:
                st.env[nm] = PtrV(v.array, v.off, PackedState(
                    pos=v.off, win_start=v.off, win_budget=cnt.poly,
                    win_tag=("cnt",)))

    def _inline_call(self, e: A.Call, fn: A.Func,
                     st: State) -> List[Tuple[State, Val]]:
        if self._depth >= MAX_INLINE_DEPTH:
            raise Unsupported(e.line, f"inline depth exceeded at {fn.name}")
        outs = []
        for st1, vals in self._eval_args(st, e.args):
            if len(vals) != len(fn.params):
                raise Unsupported(e.line, f"arity mismatch calling {fn.name}")
            callee_env: Dict[str, Val] = {}
            for (kind, tname), text in zip(fn.tparams, e.targs):
                callee_env[tname] = (
                    self._resolve_type(text, st1, e.line)
                    if kind in ("class", "typename") else
                    self._resolve_targ(text, st1, e.line))
            if len(e.targs) not in (0, len(fn.tparams)):
                raise Unsupported(e.line, "template argument mismatch")
            for p, v in zip(fn.params, vals):
                callee_env[p.name] = v
            for bname, bval in st1.env.items():
                if isinstance(bval, TableV):
                    callee_env.setdefault(bname, bval)
            for bname, bval in _BUILTIN_INTS.items():
                callee_env.setdefault(bname, IntV(Poly.const(bval)))
            callee = State(callee_env, st1.db)
            callee.grl_seen = list(st1.grl_seen)
            self._depth += 1
            try:
                ends = self.exec_block(fn.body, [callee])
            finally:
                self._depth -= 1
            for es in ends:
                ret = State(dict(st1.env), es.db)
                ret.grl_seen = list(es.grl_seen)
                outs.append((ret, es.retval if es.retval is not None
                             else NullV()))
        return outs

    def _resolve_targ(self, text: str, st: State, line: int) -> Val:
        t = text.strip()
        if t == "true":
            return IntV(Poly.const(1))
        if t == "false":
            return IntV(Poly.const(0))
        try:
            return IntV(Poly.const(int(t, 0)))
        except ValueError:
            pass
        if t in st.env:
            return st.env[t]
        if t in _BUILTIN_INTS:
            return IntV(Poly.const(_BUILTIN_INTS[t]))
        raise Unsupported(line, f"cannot resolve template argument {t!r}")

    _TYPE_ALIASES = {"Scalar": "double", "double": "double", "float": "float"}

    def _resolve_type(self, text: str, st: State, line: int) -> TypeV:
        """A type template argument: a value type the kernels instantiate
        over, or a `class V` parameter already bound in `st`."""
        t = text.strip()
        if t in self._TYPE_ALIASES:
            return TypeV(self._TYPE_ALIASES[t])
        v = st.env.get(t)
        if isinstance(v, TypeV):
            return v
        raise Unsupported(line, f"cannot resolve type argument {t!r}")

    # -- SIMD intrinsics -----------------------------------------------------
    _FLOAT_SHUFFLES = (
        "castpd", "insertf128", "extractf128", "hadd_pd", "unpacklo_pd",
        "unpackhi_pd", "add_sd", "set_pd", "permute", "shuffle_pd",
        "blend_pd", "broadcast",
    )

    def _intrinsic(self, st: State, name: str, vals: List[Val],
                   line: int) -> Val:
        bits = 512 if name.startswith("_mm512_") else \
            256 if name.startswith("_mm256_") else 128
        op = name.split("_", 2)[2]
        wd = bits // 64           # double lanes
        wi = bits // 32           # int32 lanes

        if op == "setzero_pd":
            return FloatVecV(wd)
        if op == "set1_epi32":
            return VecV(_p(vals[0], line), wi, 4)
        if op == "reduce_add_pd" or op == "cvtsd_f64":
            return FloatV()
        if any(s in op for s in self._FLOAT_SHUFFLES):
            return FloatVecV(wd)
        if op in ("fmadd_pd", "add_pd", "mul_pd", "sub_pd"):
            return FloatVecV(wd)
        if op == "mask3_fmadd_pd":
            self._mask_of(vals[3], wd, line, name)
            return FloatVecV(wd)
        if op == "maskz_mul_pd":
            self._mask_of(vals[0], wd, line, name)
            return FloatVecV(wd)
        if op in ("loadu_pd", "load_pd"):
            self._mem(st, vals[0], wd, line, write=False, what=name)
            return FloatVecV(wd)
        if op in ("storeu_pd", "store_pd"):
            self._mem(st, vals[0], wd, line, write=True, what=name)
            return NullV()
        if op == "mask_storeu_pd":
            m = self._mask_of(vals[1], wd, line, name)
            self._mem(st, vals[0], wd, line, write=True, mask=m, what=name)
            return NullV()
        if op == "maskz_loadu_pd":
            m = self._mask_of(vals[0], wd, line, name)
            self._mem(st, vals[1], wd, line, write=False, mask=m, what=name)
            return FloatVecV(wd)
        if op == "maskz_expandloadu_pd":
            m = self._mask_of(vals[0], wd, line, name)
            self._expandload(st, m, vals[1], line)
            return FloatVecV(wd)
        if op in ("loadu_si256", "loadu_si128"):
            return self._int_vload(st, vals[0], bits, line, None, name)
        if op == "maskz_loadu_epi32":
            m = self._mask_of(vals[0], wi, line, name)
            return self._int_vload(st, vals[1], bits, line, m, name)
        if op in ("loadu_ps", "load_ps"):
            self._mem(st, vals[0], wi, line, write=False, what=name)
            return FloatVecV(wi)
        if op == "maskz_loadu_ps":
            m = self._mask_of(vals[0], wi, line, name)
            self._mem(st, vals[1], wi, line, write=False, mask=m, what=name)
            return FloatVecV(wi)
        if op == "maskz_expandloadu_ps":
            m = self._mask_of(vals[0], wi, line, name)
            self._expandload(st, m, vals[1], line)
            return FloatVecV(wi)
        if op == "cvtps_pd":
            return FloatVecV(wd)
        if op == "cvtsi32_si128":
            return vals[0]                      # keep the tag flowing
        if op == "cvtepu8_epi32":
            return self._setbit_vec(st, vals[0], line)
        if op == "add_epi32":
            a, b = vals
            if isinstance(a, VecV) and isinstance(b, VecV):
                return VecV(a.lane + b.lane, a.width, a.esize, a.tag)
            raise Unsupported(line, f"{name} on non-vectors")
        if op == "i32gather_pd":
            base, idx = self._base_idx(vals[:2], line, name)
            self._gather(st, base, idx, wd, line, mask=None, write=False,
                         what=name)
            return FloatVecV(wd)
        if op == "mask_i32gather_pd":
            m = self._mask_of(vals[1], wd, line, name)
            base, idx = self._base_idx(vals[2:4], line, name)
            self._gather(st, base, idx, wd, line, mask=m, write=False,
                         what=name)
            return FloatVecV(wd)
        if op == "i32gather_ps":
            base, idx = self._base_idx(vals[:2], line, name)
            self._gather(st, base, idx, wi, line, mask=None, write=False,
                         what=name)
            return FloatVecV(wi)
        if op == "i32gather_epi32":
            base, idx = self._base_idx(vals[:2], line, name)
            self._gather(st, base, idx, wi, line, mask=None, write=False,
                         what=name)
            return VecV(Poly.atom(ArrElem(base.array, base.off + idx.lane)),
                        idx.width, 4)
        if op == "i32scatter_pd":
            base = vals[0]
            idx = vals[1]
            if not isinstance(base, PtrV) or not isinstance(idx, VecV):
                raise Unsupported(line, f"{name} operands")
            self._gather(st, base, idx, wd, line, mask=None, write=True,
                         what=name)
            return NullV()
        raise Unsupported(line, f"unmodeled intrinsic {name}")

    def _mem(self, st: State, ptr: Val, width: int, line: int, write: bool,
             mask: Optional[MaskV] = None, what: str = "access") -> None:
        if not isinstance(ptr, PtrV):
            raise Unsupported(line, f"{what}: not a pointer")
        bound = self._lane_bound(mask) if mask is not None else None
        if mask is None or bound is None:
            self.check_ptr(st, ptr, width, line, write, what=what)
        else:
            self.check_ptr(st, ptr, width, line, write, lane_bound=bound,
                           what=what)

    def _int_vload(self, st: State, ptr: Val, bits: int, line: int,
                   mask: Optional[MaskV], what: str) -> VecV:
        if not isinstance(ptr, PtrV):
            raise Unsupported(line, f"{what}: not a pointer")
        info = self.arrays.get(ptr.array)
        esz = info.esize if info is not None else 4
        width = max(1, bits // (8 * esz))   # lanes in array-element units
        bound = self._lane_bound(mask) if mask is not None else None
        self._mem(st, ptr, width, line, write=False, mask=mask, what=what)
        lane = Poly.atom(ArrElem(ptr.array, ptr.off + Poly.atom(LANE)))
        v = VecV(lane, width, esz)
        if bound is not None:
            v.tag = ("maskedload", bound)
        self._group_hook(st, ptr.array, ptr.off + Poly.atom(LANE))
        return v

    def _base_idx(self, two: List[Val], line: int,
                  what: str) -> Tuple[PtrV, VecV]:
        a, b = two
        if isinstance(a, PtrV) and isinstance(b, VecV):
            return a, b
        if isinstance(a, VecV) and isinstance(b, PtrV):
            return b, a
        raise Unsupported(line, f"{what}: expected pointer+index vector")

    def _gather(self, st: State, base: PtrV, idx: VecV, width: int,
                line: int, mask: Optional[MaskV], write: bool,
                what: str) -> None:
        bound = self._lane_bound(mask) if mask is not None else None
        if idx.tag and idx.tag[0] == "maskedload":
            src_bound = idx.tag[1]
            covered = bound is not None and \
                Prover(st.db).prove_le(bound, src_bound)
            if not covered:
                self.fail(line, "tail-mask",
                          f"{what}: consumes lanes beyond the masked index "
                          f"load's bound {src_bound}")
                return
        self.check_lane_read(st, base, idx.lane, width, line, write,
                             bound, what)

    def _expandload(self, st: State, m: MaskV, ptr: Val, line: int) -> None:
        if not isinstance(ptr, PtrV):
            raise Unsupported(line, "expandload of non-pointer")
        if m.kind != "bits" or m.word is None:
            self.fail(line, "mask-provenance",
                      "expandload mask is not a mask-table byte")
            return
        budget = Poly.atom(OpTerm("popcount", (m.word.poly,)))
        if ptr.packed is None:
            if ptr.array in self.packed_arrays:
                ps = PackedState(pos=ptr.off)
            else:
                self.check_ptr(st, ptr, 1, line, write=False)
                return
        else:
            ps = ptr.packed
        if ps.win_start is not None:
            same = Prover(st.db).prove_eq(ptr.off, ps.win_start) and \
                ps.win_budget is not None and \
                (ps.win_budget - budget).is_const() and \
                (ps.win_budget - budget).const_value() == 0
            if not same:
                self.fail(line, "packed-stream",
                          f"expandload from {ptr.array} while the previous "
                          "mask-byte budget is still unconsumed")
                return
        newp = PtrV(ptr.array, ptr.off, PackedState(
            pos=ptr.off, win_start=ptr.off, win_budget=budget,
            win_tag=("expand", m.word.poly.key())))
        self._rebind_ptr(st, ptr, newp)
        info = self.arrays.get(ptr.array)
        if info is not None:
            self.record(info, info.esize, False)

    def _setbit_vec(self, st: State, v: Val, line: int) -> VecV:
        """cvtepu8_epi32 of memcpy'd offset-table bytes: one shared symbol
        in [0,8) carrying the maskbit guarantee covers every lane."""
        if not (isinstance(v, IntV) and v.tag
                and v.tag[0] == "packedbytes"):
            raise Unsupported(line, "cvtepu8_epi32 of unknown bytes")
        word = v.tag[1]
        s = self.fresh("setbit")
        st.db.add_ge0(s)
        st.db.add_lt(s, Poly.const(8))
        self._maskbit_facts(st, word, s)
        return VecV(s, 4, 4)

    def _rebind_ptr(self, st: State, old: PtrV, new: PtrV) -> None:
        for k, v in list(st.env.items()):
            if v is old:
                st.env[k] = new

    # -- statements ----------------------------------------------------------
    _FLOAT_TYPES = ("Scalar", "double", "float", "__m512d", "__m256d",
                    "__m128d")

    def exec_block(self, block, states: List[State]) -> List[State]:
        stmts = block.stmts if isinstance(block, A.Block) else [block]
        for s in stmts:
            nxt: List[State] = []
            for st in states:
                if st.flow is not None:
                    nxt.append(st)
                else:
                    nxt.extend(self.exec_stmt(s, st))
            if len(nxt) > MAX_STATES:
                raise Unsupported(getattr(s, "line", 0),
                                  f"path explosion ({len(nxt)} states)")
            states = nxt
        return states

    def exec_stmt(self, s: A.Stmt, st: State) -> List[State]:
        if isinstance(s, A.Block):
            return self.exec_block(s, [st])
        if isinstance(s, A.Decl):
            return self._exec_decl(s, st)
        if isinstance(s, A.Assign):
            return self._exec_assign(s, st)
        if isinstance(s, A.ExprStmt):
            return [p[0] for p in self.eval(s.expr, st)]
        if isinstance(s, A.If):
            outs = []
            for st1 in self.assume(st.fork(), s.cond, True):
                outs.extend(self.exec_stmt(s.then, st1))
            for st2 in self.assume(st.fork(), s.cond, False):
                if s.other is not None:
                    outs.extend(self.exec_stmt(s.other, st2))
                else:
                    outs.append(st2)
            return outs
        if isinstance(s, A.For):
            pre = [st] if s.init is None else self.exec_stmt(s.init, st)
            outs = []
            for st1 in pre:
                outs.extend(self._exec_loop(st1, s.cond, s.step, s.body,
                                            s.line))
            return outs
        if isinstance(s, A.While):
            wb = self._while_bits_info(s)
            if wb is not None:
                return self._exec_while_bits(st, s, wb)
            return self._exec_loop(st, s.cond, None, s.body, s.line)
        if isinstance(s, A.Switch):
            return self._exec_switch(s, st)
        if isinstance(s, A.Return):
            if s.value is not None:
                outs = []
                for st1, v in self.eval(s.value, st):
                    st1.flow = "return"
                    st1.retval = v
                    outs.append(st1)
                return outs
            st.flow = "return"
            return [st]
        if isinstance(s, A.Jump):
            st.flow = s.kind
            return [st]
        raise Unsupported(s.line, f"unsupported statement "
                          f"{type(s).__name__}")

    def _base_type(self, dtype: str) -> str:
        t = dtype.replace("const", "").replace("&", "").replace("*", "")
        t = t.replace("constexpr", "").strip()
        return t.split()[-1] if t else ""

    def _exec_decl(self, s: A.Decl, st: State) -> List[State]:
        bt = self._base_type(s.dtype)
        st.types[s.name] = bt
        if s.array_size is not None:
            outs = []
            for st1, sz in self.eval(s.array_size, st):
                arr = f"{s.name}@{s.line}#{next(self._fresh)}"
                esize = _TYPE_SIZES.get(bt, 8)
                fkind = "float" if bt in self._FLOAT_TYPES else "int"
                self.arrays[arr] = ArrayInfo(arr, _p(sz, s.line), esize,
                                             "local", fkind=fkind)
                st1.env[s.name] = PtrV(arr, Poly.const(0))
                outs.append(st1)
            return outs
        if s.init is None:
            if bt in self._FLOAT_TYPES:
                st.env[s.name] = FloatV()
            else:
                st.env[s.name] = IntV(self.fresh(s.name))
            return [st]
        outs = []
        for st1, v in self.eval(s.init, st):
            st1.env[s.name] = v
            outs.append(st1)
        return outs

    def _exec_assign(self, s: A.Assign, st: State) -> List[State]:
        t = s.target
        if isinstance(t, A.Ident):
            cur = st.env.get(t.name)
            if s.op != "=" and isinstance(cur, PtrV) \
                    and s.op in ("+=", "-="):
                outs = []
                for st1, amt in self.eval(s.value, st):
                    iv = amt if s.op == "+=" else \
                        IntV(-_p(amt, s.line))
                    st1.env[t.name] = self._advance_ptr(
                        st1, st1.env[t.name], iv, s.line)
                    outs.append(st1)
                return outs
            rhs = s.value if s.op == "=" else A.Binary(
                line=s.line, op=s.op[:-1], lhs=t, rhs=s.value)
            outs = []
            for st1, v in self.eval(rhs, st):
                st1.env[t.name] = v
                outs.append(st1)
            return outs
        if isinstance(t, A.Subscript):
            outs = []
            for st1, base in self.eval(t.base, st):
                for st2, idx in self.eval(t.index, st1):
                    if not isinstance(base, PtrV):
                        raise Unsupported(s.line, "assign to non-pointer "
                                          "subscript")
                    ptr = PtrV(base.array, base.off + _p(idx, s.line),
                               base.packed)
                    if s.op != "=":
                        self.check_ptr(st2, ptr, 1, s.line, write=False)
                    self.check_ptr(st2, ptr, 1, s.line, write=True)
                    for st3, _v in self.eval(s.value, st2):
                        outs.append(st3)
            return outs
        if isinstance(t, A.Unary) and t.op == "*":
            outs = []
            for st1, ptr in self.eval(t.operand, st):
                if not isinstance(ptr, PtrV):
                    raise Unsupported(s.line, "assign through non-pointer")
                if s.op != "=":
                    self.check_ptr(st1, ptr, 1, s.line, write=False)
                self.check_ptr(st1, ptr, 1, s.line, write=True)
                for st2, _v in self.eval(s.value, st1):
                    outs.append(st2)
            return outs
        raise Unsupported(s.line, "unsupported assignment target")

    # -- conditions ----------------------------------------------------------
    def assume(self, st: State, e: A.Expr, truth: bool) -> List[State]:
        if isinstance(e, A.Unary) and e.op == "!":
            return self.assume(st, e.operand, not truth)
        if isinstance(e, A.Binary) and e.op in ("&&", "||"):
            is_and = (e.op == "&&")
            if is_and == truth:
                outs = []
                for s1 in self.assume(st, e.lhs, truth):
                    outs.extend(self.assume(s1, e.rhs, truth))
                return outs
            outs = list(self.assume(st.fork(), e.lhs, not is_and))
            for s1 in self.assume(st, e.lhs, is_and):
                outs.extend(self.assume(s1, e.rhs, not is_and))
            return outs
        if isinstance(e, A.Binary) and e.op in ("<", "<=", ">", ">=",
                                                "==", "!="):
            op, lhs, rhs = e.op, e.lhs, e.rhs
        else:
            op, lhs, rhs = "!=", e, A.Num(line=e.line, value=0)
        outs = []
        for st1, a in self.eval(lhs, st):
            for st2, b in self.eval(rhs, st1):
                outs.extend(self._assume_cmp(st2, op, a, b, truth, e.line))
        return outs

    _NEG = {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
            "==": "!=", "!=": "=="}

    def _assume_cmp(self, st: State, op: str, a: Val, b: Val, truth: bool,
                    line: int) -> List[State]:
        if isinstance(a, NullV) or isinstance(b, NullV):
            return [st]
        if not isinstance(a, IntV) or not isinstance(b, IntV):
            return [st]
        if not truth:
            op = self._NEG[op]
        pa, pb = a.poly, b.poly
        d = pa - pb
        if d.is_const():
            c = d.const_value()
            holds = {"<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0,
                     "==": c == 0, "!=": c != 0}[op]
            return [st] if holds else []
        if op == "<":
            st.db.add_lt(pa, pb)
        elif op == "<=":
            st.db.add_le(pa, pb)
        elif op == ">":
            st.db.add_lt(pb, pa)
        elif op == ">=":
            st.db.add_le(pb, pa)
        elif op == "==":
            st.db.add_eq(pa, pb)
        elif op == "!=":
            tagged = (a.tag and a.tag[0] in ("maskbyte", "maskbyte-sub",
                                             "popcount"))
            if pb.is_const() and pb.const_value() == 0 and tagged:
                st.db.add_le(Poly.const(1), pa)
            elif pa.is_const() and pa.const_value() == 0 and b.tag:
                st.db.add_le(Poly.const(1), pb)
        return [st]

    # -- loops ---------------------------------------------------------------
    def _walk_stmts(self, s):
        if s is None:
            return
        yield s
        if isinstance(s, A.Block):
            for c in s.stmts:
                yield from self._walk_stmts(c)
        elif isinstance(s, A.If):
            yield from self._walk_stmts(s.then)
            yield from self._walk_stmts(s.other)
        elif isinstance(s, (A.For, A.While)):
            if isinstance(s, A.For):
                yield from self._walk_stmts(s.init)
                yield from self._walk_stmts(s.step)
            yield from self._walk_stmts(s.body)
        elif isinstance(s, A.Switch):
            for c in s.cases:
                for b in c.body:
                    yield from self._walk_stmts(b)

    def _walk_exprs(self, e):
        if e is None or not isinstance(e, A.Expr):
            return
        yield e
        for f in ("base", "index", "lhs", "rhs", "operand", "cond", "then",
                  "other", "value", "method_of"):
            yield from self._walk_exprs(getattr(e, f, None))
        for a in getattr(e, "args", ()) or ():
            yield from self._walk_exprs(a)

    def _stmt_exprs(self, s):
        for f in ("init", "cond", "step", "expr", "value", "target",
                  "array_size"):
            v = getattr(s, f, None)
            if isinstance(v, A.Expr):
                yield from self._walk_exprs(v)

    def _assigned_names(self, body) -> set:
        names = set()
        for s in self._walk_stmts(body):
            if isinstance(s, A.Assign) and isinstance(s.target, A.Ident):
                names.add(s.target.name)
            if isinstance(s, A.Decl):
                names.add(s.name)
            for e in self._stmt_exprs(s):
                if isinstance(e, A.Unary) and e.op in ("++", "--") \
                        and isinstance(e.operand, A.Ident):
                    names.add(e.operand.name)
        return names

    def _idents(self, e) -> set:
        return {x.name for x in self._walk_exprs(e)
                if isinstance(x, A.Ident)}

    def _counter_info(self, step: A.Stmt):
        """(name, delta_expr, sign) from a loop step statement."""
        if isinstance(step, A.Assign) and isinstance(step.target, A.Ident):
            if step.op == "+=":
                return step.target.name, step.value, 1
            if step.op == "-=":
                return step.target.name, step.value, -1
            if step.op == "=" and isinstance(step.value, A.Binary) \
                    and step.value.op in ("+", "-") \
                    and isinstance(step.value.lhs, A.Ident) \
                    and step.value.lhs.name == step.target.name:
                return (step.target.name, step.value.rhs,
                        1 if step.value.op == "+" else -1)
        if isinstance(step, A.ExprStmt) and isinstance(step.expr, A.Unary) \
                and step.expr.op in ("++", "--") \
                and isinstance(step.expr.operand, A.Ident):
            return (step.expr.operand.name, A.Num(line=step.line, value=1),
                    1 if step.expr.op == "++" else -1)
        return None

    def _affine_delta(self, body, name: str) -> Optional[int]:
        """Constant per-iteration increment of `name` inside body, or None."""
        sites = []
        for s in self._walk_stmts(body):
            if isinstance(s, A.Assign) and isinstance(s.target, A.Ident) \
                    and s.target.name == name:
                sites.append(s)
            for e in self._stmt_exprs(s):
                if isinstance(e, A.Unary) and e.op in ("++", "--") \
                        and isinstance(e.operand, A.Ident) \
                        and e.operand.name == name:
                    sites.append(None)   # bare inc/dec: treat as non-affine
        if len(sites) != 1 or sites[0] is None:
            return None
        s = sites[0]
        if s.op in ("+=", "-=") and isinstance(s.value, A.Num):
            return s.value.value if s.op == "+=" else -s.value.value
        if s.op == "=" and isinstance(s.value, A.Binary) \
                and s.value.op in ("+", "-") \
                and isinstance(s.value.lhs, A.Ident) \
                and s.value.lhs.name == name \
                and isinstance(s.value.rhs, A.Num):
            return s.value.rhs.value if s.value.op == "+" \
                else -s.value.rhs.value
        if s.op == "=" and isinstance(s.value, A.Call) \
                and s.value.fn.endswith("add_epi32") \
                and len(s.value.args) == 2 \
                and isinstance(s.value.args[0], A.Ident) \
                and s.value.args[0].name == name \
                and isinstance(s.value.args[1], A.Call) \
                and s.value.args[1].fn.endswith("set1_epi32") \
                and isinstance(s.value.args[1].args[0], A.Num):
            return s.value.args[1].args[0].value
        return None

    def _havoc(self, st: State, v: Val) -> Val:
        if isinstance(v, IntV):
            return IntV(self.fresh("h"))
        if isinstance(v, PtrV):
            off = self.fresh("hp")
            st.db.add_ge0(off)
            packed = PackedState(pos=off) if v.packed is not None else None
            np = PtrV(v.array, off, packed)
            np.meta = getattr(v, "meta", None)
            return np
        if isinstance(v, VecV):
            return VecV(self.fresh("hv"), v.width, v.esize)
        return v

    def _step_divides(self, db: FactDB, step: Poly, diff: Poly) -> bool:
        cstep = step.const_value() if step.is_const() else None
        if cstep == 1:
            return True
        if cstep == 0:
            return False
        pr = Prover(db)
        c0 = diff.coeff(())
        if cstep is not None:
            if c0 % cstep != 0:
                return False
        elif c0 != 0:
            return False
        for m in diff.monomials():
            if len(m) != 1 or m[0][1] != 1:
                return False
            at = m[0][0]
            if not isinstance(at, ArrElem):
                return False
            coeff = diff.coeff(m)
            idiv = db.elem_divides.get(at.arr)
            sdiv = self.elem_div_sym.get(at.arr)
            if cstep is not None:
                if idiv is not None and (coeff * idiv) % cstep == 0:
                    continue
                if sdiv is not None and pr.prove_eq(sdiv,
                                                   Poly.const(cstep)):
                    continue
                return False
            else:
                if sdiv is not None and sdiv.key() == step.key():
                    continue
                return False
        return True

    def _exec_loop(self, st: State, cond, step_stmt, body,
                   line: int) -> List[State]:
        if cond is None:
            raise Unsupported(line, "loop without condition")
        assigned = self._assigned_names(body)
        info = self._counter_info(step_stmt) if step_stmt is not None \
            else None
        if info is None and step_stmt is not None:
            raise Unsupported(line, "unrecognized loop step")
        cname = step_poly = k0 = None
        if info is not None:
            cname, dexpr, sign = info
            assigned.add(cname)
            res = self.eval(dexpr, st)
            if len(res) != 1:
                raise Unsupported(line, "forking loop step")
            step_poly = _p(res[0][1], line) * sign
            cur = st.env.get(cname)
            if not isinstance(cur, IntV):
                raise Unsupported(line, f"loop counter {cname} is not an "
                                  "integer")
            k0 = cur.poly
            if step_poly.is_const() and step_poly.const_value() <= 0:
                raise Unsupported(line, "non-increasing loop counter")
        # Carried-variable plan for everything else the body assigns.
        carried: Dict[str, Optional[int]] = {}
        for nm in assigned:
            if nm == cname or nm not in st.env:
                continue
            carried[nm] = self._affine_delta(body, nm)
        # Strong mode: exact trip count when cond is `k < E` with E loop-
        # invariant and step | (E - k0) (slice/panel loops).
        strong = None
        if (cname is not None and isinstance(cond, A.Binary)
                and cond.op == "<" and isinstance(cond.lhs, A.Ident)
                and cond.lhs.name == cname
                and not (self._idents(cond.rhs) & assigned)):
            res = self.eval(cond.rhs, st.fork())
            if len(res) == 1 and isinstance(res[0][1], IntV):
                bound = res[0][1].poly
                if self._step_divides(st.db, step_poly, bound - k0):
                    strong = bound
        w = self.fresh("w") if strong is not None else None

        def apply_frame(tgt: State, tpoly: Poly) -> None:
            if cname is not None:
                tgt.env[cname] = IntV(k0 + step_poly * tpoly)
            for nm, dc in carried.items():
                old = st.env[nm]
                if dc is None:
                    tgt.env[nm] = self._havoc(tgt, old)
                elif isinstance(old, IntV):
                    tgt.env[nm] = IntV(old.poly + dc * tpoly)
                elif isinstance(old, VecV):
                    tgt.env[nm] = VecV(old.lane + dc * tpoly, old.width,
                                       old.esize)
                else:
                    tgt.env[nm] = self._havoc(tgt, old)

        returns: List[State] = []
        breaks: List[State] = []
        # One symbolic iteration.
        it = st.fork()
        t = self.fresh("t")
        it.db.add_ge0(t)
        if strong is not None:
            it.db.add_ge0(w)
            it.db.add_eq(step_poly * w, strong - k0)
            it.db.add_le(t, w - 1)
        if cname is not None:
            apply_frame(it, t)
        else:
            for nm in assigned:
                if nm in st.env:
                    it.env[nm] = self._havoc(it, st.env[nm])
        for it1 in self.assume(it, cond, True):
            for out in self.exec_block(body, [it1]):
                if out.flow == "return":
                    returns.append(out)
                elif out.flow == "break":
                    out.flow = None
                    breaks.append(out)
        # Exit state.
        ex = st.fork()
        if strong is not None:
            ex.db.add_ge0(w)
            ex.db.add_eq(step_poly * w, strong - k0)
            apply_frame(ex, w)
            ex.env[cname] = IntV(strong)
            exits = [ex]
        else:
            tx = self.fresh("t")
            ex.db.add_ge0(tx)
            if cname is not None:
                apply_frame(ex, tx)
            else:
                for nm in assigned:
                    if nm in st.env:
                        ex.env[nm] = self._havoc(ex, st.env[nm])
            exits = self.assume(ex, cond, False)
        return exits + breaks + returns

    # -- while (bits) { ... bits &= bits - 1; } ------------------------------
    def _while_bits_info(self, s: A.While) -> Optional[str]:
        cond = s.cond
        name = None
        if isinstance(cond, A.Ident):
            name = cond.name
        elif isinstance(cond, A.Binary) and cond.op == "!=" \
                and isinstance(cond.lhs, A.Ident) \
                and isinstance(cond.rhs, A.Num) and cond.rhs.value == 0:
            name = cond.lhs.name
        if name is None:
            return None
        for b in self._walk_stmts(s.body):
            if isinstance(b, A.Assign) and isinstance(b.target, A.Ident) \
                    and b.target.name == name:
                v = b.value
                if b.op == "&=" and isinstance(v, A.Binary) \
                        and v.op == "-" and isinstance(v.lhs, A.Ident) \
                        and v.lhs.name == name:
                    return name
                if b.op == "=" and isinstance(v, A.Binary) and v.op == "&":
                    return name
        return None

    def _exec_while_bits(self, st: State, s: A.While,
                         name: str) -> List[State]:
        b0 = st.env.get(name)
        if not (isinstance(b0, IntV) and b0.tag
                and b0.tag[0] in ("maskbyte", "maskbyte-sub")):
            return self._exec_loop(st, s.cond, None, s.body, s.line)
        budget = Poly.atom(OpTerm("popcount", (b0.poly,)))
        st.db.add_ge0(budget)
        st.db.add_le(budget, Poly.const(8))
        # The loop consumes exactly popcount(bits) packed elements: open a
        # budget window on every packed pointer that lacks one.
        opened = []
        for nm, v in list(st.env.items()):
            if isinstance(v, PtrV) and v.packed is not None \
                    and v.packed.win_start is None:
                st.env[nm] = PtrV(v.array, v.off, PackedState(
                    pos=v.off, win_start=v.off, win_budget=budget,
                    win_tag=("whilebits", name)))
                opened.append(nm)
        assigned = self._assigned_names(s.body)
        returns: List[State] = []
        breaks: List[State] = []
        it = st.fork()
        nb = self.fresh("bits")
        it.db.add_le(Poly.const(1), nb)
        it.db.add_le(nb, b0.poly)
        it.env[name] = IntV(nb, tag=b0.tag)
        for nm in assigned:
            if nm == name or nm not in st.env:
                continue
            v = st.env[nm]
            if isinstance(v, PtrV) and v.packed is not None \
                    and v.packed.win_start is not None:
                off = self.fresh("hp")
                ps = v.packed
                it.db.add_le(ps.win_start, off)
                it.db.add_le(off + 1, ps.win_start + ps.win_budget)
                it.env[nm] = PtrV(v.array, off, PackedState(
                    pos=off, win_start=ps.win_start,
                    win_budget=ps.win_budget, win_tag=ps.win_tag))
            else:
                it.env[nm] = self._havoc(it, v)
        for out in self.exec_block(s.body, [it]):
            if out.flow == "return":
                returns.append(out)
            elif out.flow == "break":
                out.flow = None
                breaks.append(out)
        ex = st.fork()
        ex.env[name] = IntV(Poly.const(0))
        for nm in assigned:
            if nm == name or nm not in st.env:
                continue
            v = st.env[nm]
            if isinstance(v, PtrV) and v.packed is not None \
                    and v.packed.win_start is not None:
                end = v.packed.win_start + v.packed.win_budget
                ex.env[nm] = PtrV(v.array, end, PackedState(pos=end))
            else:
                ex.env[nm] = self._havoc(ex, v)
        return [ex] + breaks + returns

    # -- switch --------------------------------------------------------------
    def _exec_switch(self, s: A.Switch, st: State) -> List[State]:
        outs: List[State] = []
        for st1, scr in self.eval(s.expr, st):
            p = _p(scr, s.line)
            labels = [c.label for c in s.cases if c.label is not None]
            for i, case in enumerate(s.cases):
                if not case.body:
                    raise Unsupported(s.line, "switch fallthrough")
                last = case.body[-1]
                if not isinstance(last, (A.Jump, A.Return)):
                    raise Unsupported(s.line, "switch case does not end "
                                      "with break/return")
                cs = st1.fork()
                if case.label is not None:
                    cs.db.add_eq(p, Poly.const(case.label))
                else:
                    self._refine_default(cs, p, labels)
                blk = A.Block(line=s.line, stmts=case.body)
                for out in self.exec_block(blk, [cs]):
                    if out.flow == "break":
                        out.flow = None
                    outs.append(out)
            if not any(c.label is None for c in s.cases):
                outs.append(st1.fork())     # no default: fallthrough past
        return outs

    def _refine_default(self, cs: State, p: Poly, labels: List[int]) -> None:
        """If the scrutinee is the stride of a stride-annotated array,
        the default case pins it to the remaining stride value."""
        monos = list(p.monomials())
        if p.coeff(()) != 0 or len(monos) != 2:
            return
        pos = neg = None
        for m in monos:
            if len(m) != 1 or m[0][1] != 1 \
                    or not isinstance(m[0][0], ArrElem):
                return
            if p.coeff(m) == 1:
                pos = m[0][0]
            elif p.coeff(m) == -1:
                neg = m[0][0]
        if pos is None or neg is None or pos.arr != neg.arr:
            return
        vals = cs.db.stride.get(pos.arr)
        if vals is None:
            return
        d = pos.idx - neg.idx
        if not (d.is_const() and d.const_value() == 1):
            return
        remaining = [v for v in vals if v not in labels]
        if len(remaining) == 1:
            cs.db.add_eq(p, Poly.const(remaining[0]))

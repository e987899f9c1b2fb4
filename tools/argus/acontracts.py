"""Argus contract annotations.

Grammar (each line is a standalone `// argus-...` comment):

View contracts (src/mat/kernels/views.hpp, above each struct):
  // argus-view: SellView
  // argus-let: stored = sliceptr[nslices]
  // argus-extent: colidx = stored
  // argus-fact: monotone(sliceptr)
  // argus-fact: sliceptr[0] == 0
  // argus-fact: elem(colidx) in [0, n)
  // argus-fact: divides(c, elem(sliceptr))
  // argus-fact: maskbit(block_mask, block_col, n)
  // argus-fact: packed(val, panel_valptr)
  // argus-fact: group(perm, group_begin, group_rlen, csr.rowptr)
  // argus-fact: stride(panel_row) in {1, 2, 4}
  // argus-field: csr : CsrView            (nested view member)

Kernel TU contracts (each kernel .cpp):
  // argus-contract: format=sell isa=avx512          (TU header, required)
  // argus-kernel: sell_spmv_avx512                  (above the function)
  // argus-param: a : view SellView
  // argus-param: x : in extent n
  // argus-param: y : out extent m
  // argus-param: rows : in extent m elem [0, len(y))
  // argus-require: divides(8, c)
  // argus-traffic: sell                             (or `none`)
  // argus-table: kOffsets = setbits                 (constant table semantics)

Traffic models (next to each spmv_traffic_bytes() definition):
  // argus-traffic-model: sell
  // argus-traffic-stream: val = 8 * nnz
  // argus-traffic-stream: y = 16 * m : wa
  // argus-traffic-stream: sliceptr = 2 * m : conv
  // argus-traffic-stream: @include = csr
  // argus-traffic-bind: nnz() = nnz
  // argus-traffic-cpp: spmv_traffic_bytes

Expressions use the C++ expression grammar (aparser) over view field names
plus `ceil_div(a, b)`, `popcount(w)`, `len(param)`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from alexer import tokenize
from aparser import Expr, Parser


class ContractError(Exception):
    def __init__(self, where: str, msg: str):
        super().__init__(f"{where}: {msg}")
        self.where = where


def parse_annot_expr(text: str, where: str) -> Expr:
    try:
        p = Parser(tokenize(text), where)
        e = p._parse_expr()
        if p.cur().kind != "eof":
            raise ContractError(where, f"trailing tokens in {text!r}")
        return e
    except ContractError:
        raise
    except Exception as ex:
        raise ContractError(where, f"bad expression {text!r}: {ex}")


# ---------------------------------------------------------------------------
# Fact forms
# ---------------------------------------------------------------------------

@dataclass
class Fact:
    kind: str                 # cmp|monotone|elem|divides|divides_elem|maskbit
    #                         # |packed|group|stride
    args: tuple = ()
    where: str = ""


_CMP_RE = re.compile(r"(.+?)(==|<=|>=|<|>)(.+)")
_ELEM_RE = re.compile(
    r"elem\(\s*([\w.]+)\s*\)\s*in\s*\[(.+),(.+)([\)\]])\s*$")
_STRIDE_RE = re.compile(r"stride\(\s*([\w.]+)\s*\)\s*in\s*\{(.+)\}\s*$")
_CALLFORM_RE = re.compile(r"(\w+)\(\s*(.*)\s*\)\s*$")


def parse_fact(text: str, where: str) -> Fact:
    text = text.strip()
    m = _ELEM_RE.match(text)
    if m:
        arr, lo, hi, close = m.group(1), m.group(2), m.group(3), m.group(4)
        return Fact("elem", (arr, parse_annot_expr(lo, where),
                             parse_annot_expr(hi, where), close == "]"), where)
    m = _STRIDE_RE.match(text)
    if m:
        vals = tuple(int(v.strip()) for v in m.group(2).split(","))
        return Fact("stride", (m.group(1), vals), where)
    m = _CALLFORM_RE.match(text)
    if m and m.group(1) in ("monotone", "divides", "maskbit", "packed",
                            "group", "maskword"):
        fn = m.group(1)
        args = _split_args(m.group(2))
        if fn == "monotone":
            return Fact("monotone", (args[0],), where)
        if fn == "maskword":
            return Fact("maskword", (args[0],), where)
        if fn == "divides":
            inner = args[1].strip()
            em = re.match(r"elem\(\s*([\w.]+)\s*\)$", inner)
            try:
                c = int(args[0], 0)
            except ValueError:
                # Symbolic divisor (e.g. divides(c, elem(sliceptr))).
                divisor = parse_annot_expr(args[0], where)
                if em:
                    return Fact("divides_elem_sym", (divisor, em.group(1)),
                                where)
                raise ContractError(
                    where, "symbolic divides() needs an elem() target")
            if em:
                return Fact("divides_elem", (c, em.group(1)), where)
            return Fact("divides", (c, parse_annot_expr(inner, where)), where)
        if fn == "maskbit":
            return Fact("maskbit", (args[0], args[1],
                                    parse_annot_expr(args[2], where)), where)
        if fn == "packed":
            return Fact("packed", tuple(args), where)
        if fn == "group":
            return Fact("group", tuple(args), where)
    m = _CMP_RE.match(text)
    if m:
        lhs = parse_annot_expr(m.group(1), where)
        rhs = parse_annot_expr(m.group(3), where)
        return Fact("cmp", (m.group(2), lhs, rhs), where)
    raise ContractError(where, f"unrecognized fact {text!r}")


def _split_args(text: str) -> List[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return out


# ---------------------------------------------------------------------------
# Contract containers
# ---------------------------------------------------------------------------

@dataclass
class ViewContract:
    name: str
    lets: List[Tuple[str, Expr]] = field(default_factory=list)
    extents: Dict[str, Expr] = field(default_factory=dict)
    facts: List[Fact] = field(default_factory=list)
    nested: Dict[str, str] = field(default_factory=dict)  # member -> view type


@dataclass
class ParamSpec:
    name: str
    role: str                     # view | in | out | int
    view_type: str = ""
    extent: Optional[Expr] = None  # None + role in/out => fresh extent sym
    elem_lo: Optional[Expr] = None
    elem_hi: Optional[Expr] = None
    elem_hi_incl: bool = False


@dataclass
class KernelContract:
    fn: str
    params: List[ParamSpec] = field(default_factory=list)
    requires: List[Fact] = field(default_factory=list)
    traffic: Optional[str] = None
    where: str = ""


@dataclass
class TUContract:
    fmt: str = ""
    isa: str = ""
    kernels: Dict[str, KernelContract] = field(default_factory=dict)
    tables: Dict[str, str] = field(default_factory=dict)  # table -> semantics


@dataclass
class TrafficStream:
    array: str
    count: Optional[Expr]         # total bytes expression (None for @include)
    tags: Dict[str, str] = field(default_factory=dict)
    include: Optional[str] = None


@dataclass
class TrafficModel:
    fmt: str
    streams: List[TrafficStream] = field(default_factory=list)
    binds: List[Tuple[str, str]] = field(default_factory=list)  # text -> text
    cpp_fn: Optional[str] = None
    path: str = ""
    line: int = 0


# ---------------------------------------------------------------------------
# Parsing annotation line groups
# ---------------------------------------------------------------------------

def _directive(line_text: str) -> Tuple[str, str]:
    """Split 'argus-xxx: payload' into (xxx, payload)."""
    head, sep, payload = line_text.partition(":")
    if not sep:
        return head.strip(), ""
    return head.strip(), payload.strip()


def parse_view_contracts(annots: List[Tuple[int, str]],
                         path: str) -> Dict[str, ViewContract]:
    """Parse argus-view blocks from a flat annotation list (views.hpp)."""
    views: Dict[str, ViewContract] = {}
    cur: Optional[ViewContract] = None
    for line, text in annots:
        where = f"{path}:{line}"
        d, payload = _directive(text)
        if d == "argus-view":
            cur = ViewContract(payload)
            views[payload] = cur
        elif d == "argus-let":
            _need(cur, where)
            name, _sep, expr = payload.partition("=")
            cur.lets.append((name.strip(),
                             parse_annot_expr(expr.strip(), where)))
        elif d == "argus-extent":
            _need(cur, where)
            name, _sep, expr = payload.partition("=")
            cur.extents[name.strip()] = parse_annot_expr(expr.strip(), where)
        elif d == "argus-fact":
            _need(cur, where)
            cur.facts.append(parse_fact(payload, where))
        elif d == "argus-field":
            _need(cur, where)
            name, _sep, vtype = payload.partition(":")
            cur.nested[name.strip()] = vtype.strip()
        else:
            raise ContractError(where, f"unexpected directive {d!r} "
                                "in view contract file")
    return views


def _need(cur, where):
    if cur is None:
        raise ContractError(where, "directive outside an argus-view block")


_CONTRACT_RE = re.compile(r"format=([\w-]+)\s+isa=([\w-]+)")


def parse_tu_contract(tu_annots: List[Tuple[int, str]],
                      func_annots: Dict[str, List[Tuple[int, str]]],
                      path: str) -> TUContract:
    """Build the TU contract from TU-level annotations plus per-function
    annotation groups (keyed by the function the group precedes)."""
    out = TUContract()
    for line, text in tu_annots:
        where = f"{path}:{line}"
        d, payload = _directive(text)
        if d == "argus-contract":
            m = _CONTRACT_RE.search(payload)
            if not m:
                raise ContractError(
                    where, "argus-contract needs format=<f> isa=<i>")
            out.fmt, out.isa = m.group(1), m.group(2)
        elif d == "argus-table":
            name, _sep, sem = payload.partition("=")
            out.tables[name.strip()] = sem.strip()
        # Other directives at TU level are handled via func groups.
    for fn, group in func_annots.items():
        kc: Optional[KernelContract] = None
        for line, text in group:
            where = f"{path}:{line}"
            d, payload = _directive(text)
            if d == "argus-kernel":
                kc = KernelContract(fn=payload or fn, where=where)
                out.kernels[kc.fn] = kc
            elif d == "argus-param":
                _need(kc, where)
                kc.params.append(_parse_param(payload, where))
            elif d == "argus-require":
                _need(kc, where)
                kc.requires.append(parse_fact(payload, where))
            elif d == "argus-traffic":
                _need(kc, where)
                kc.traffic = payload
            elif d in ("argus-contract", "argus-table"):
                # TU-level directives that happened to precede a function.
                dd, pp = d, payload
                if dd == "argus-contract":
                    m = _CONTRACT_RE.search(pp)
                    if m:
                        out.fmt, out.isa = m.group(1), m.group(2)
                else:
                    nm, _s, sem = pp.partition("=")
                    out.tables[nm.strip()] = sem.strip()
            elif d.startswith("argus-traffic-"):
                # Traffic-model blocks (argus-traffic-model/-stream/-bind/
                # -cpp) are parsed from the raw TU text by atraffic; a TU
                # may host one right before its traffic-bytes function.
                continue
            else:
                raise ContractError(where, f"unexpected directive {d!r}")
    return out


_PARAM_RE = re.compile(
    r"^([\w]+)\s*:\s*(view\s+(\w+)|in|out|int)"
    r"(?:\s+extent\s+(\*|[^\s]+(?:\s*[-+*/]\s*[^\s]+)*))?"
    r"(?:\s+elem\s+\[(.+),(.+)([\)\]]))?\s*$")


def _parse_param(payload: str, where: str) -> ParamSpec:
    m = _PARAM_RE.match(payload.strip())
    if not m:
        raise ContractError(where, f"bad argus-param {payload!r}")
    name = m.group(1)
    role_text = m.group(2)
    spec = ParamSpec(name=name, role="int")
    if role_text.startswith("view"):
        spec.role = "view"
        spec.view_type = m.group(3)
    elif role_text in ("in", "out"):
        spec.role = role_text
    if m.group(4) and m.group(4) != "*":
        spec.extent = parse_annot_expr(m.group(4), where)
    if m.group(5) is not None:
        spec.elem_lo = parse_annot_expr(m.group(5), where)
        spec.elem_hi = parse_annot_expr(m.group(6), where)
        spec.elem_hi_incl = m.group(7) == "]"
    return spec


_STREAM_RE = re.compile(r"^([@\w.]+)\s*=\s*([^:]+?)\s*((?::\s*[\w]+(?:\s+\d+)?\s*)*)$")


def parse_traffic_models(text: str, path: str) -> List[TrafficModel]:
    """Scan a source file's text for argus-traffic-* annotation runs."""
    models: List[TrafficModel] = []
    cur: Optional[TrafficModel] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped.startswith("//"):
            continue
        body = stripped[2:].strip()
        if not body.startswith("argus-traffic"):
            continue
        where = f"{path}:{lineno}"
        d, payload = _directive(body)
        if d == "argus-traffic-model":
            cur = TrafficModel(fmt=payload, path=path, line=lineno)
            models.append(cur)
        elif d == "argus-traffic-stream":
            if cur is None:
                raise ContractError(where, "stream outside a traffic model")
            m = _STREAM_RE.match(payload)
            if not m:
                raise ContractError(where, f"bad stream {payload!r}")
            arr, count_text, tagtext = m.group(1), m.group(2), m.group(3)
            tags: Dict[str, str] = {}
            for part in (tagtext or "").split(":"):
                part = part.strip()
                if not part:
                    continue
                bits = part.split()
                tags[bits[0]] = bits[1] if len(bits) > 1 else ""
            if arr == "@include":
                cur.streams.append(TrafficStream(
                    array="@include", count=None, tags=tags,
                    include=count_text.strip()))
            else:
                cur.streams.append(TrafficStream(
                    array=arr, count=parse_annot_expr(count_text, where),
                    tags=tags))
        elif d == "argus-traffic-bind":
            if cur is None:
                raise ContractError(where, "bind outside a traffic model")
            lhs, _sep, rhs = payload.partition("=")
            cur.binds.append((lhs.strip(), rhs.strip()))
        elif d == "argus-traffic-cpp":
            if cur is None:
                raise ContractError(where, "cpp ref outside a traffic model")
            cur.cpp_fn = payload
    return models

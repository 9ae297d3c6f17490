"""Command-line front end: configuration ingestion, verification-suite
orchestration, and deterministic machine- or human-readable reports.

Commands
    check relations      defining-relation residuals plus ideal reduction
    check hopf           co/associativity, bialgebra compatibility, antipode
    check closed-forms   iterated-adjoint and power closed forms
    pairing gram         graded Gram determinants vs. the partition oracle
    module               highest-weight modules: dimensions, thresholds,
                         relation matrix identities
    twist                cocycle-twisted relations, gauge identities, and the
                         comparison map
    smallqg              root-of-unity nilpotency, finite grading group, and
                         alcove modules

Reports are emitted as line-delimited JSON records (byte-identical across
runs with the same configuration; add --timings to include elapsed times) or
as a human-readable table (always timed).  Exit codes: 0 every record
passes, 1 at least one record fails or is undecided, 2 configuration error.
"""

from __future__ import annotations

import argparse
import ast
import json
import random
import sys
import time
from fractions import Fraction
from functools import partial

from .cartan import (CartanDatum, LatticeVector, ParamMatrix,
                     fundamental_weight, kostant_count, weyl_dim)
from .cotensor import Word
from .linalg import add_into
from .modules import (ClosureError, FiniteTypeError, alcove_check,
                      build_module, render_weight, root_of_unity_module)
from .pairing import SkewPairing, weights_of_height
from .realization import IdealReducer, Realization, relation_verdict
from .twist import build_twist


class ConfigError(Exception):
    """Invalid configuration; reported on stderr with exit status 2."""


# -- configuration -------------------------------------------------------------------

# key -> (type, default, allowed values or None)
_KEYS = {
    "preset": (str, "A2", None),
    "cartan": (list, None, None),
    "symmetrizers": (list, None, None),
    "mode": (str, "symbolic", ("symbolic", "one-parameter", "mixed-diagonal",
                               "numeric", "root-of-unity")),
    "numeric": (dict, None, None),
    "ell": (int, 5, None),
    "offdiag": (dict, None, None),
    "weights": (list, None, None),
    "qhat": (str, "one-parameter", ("one-parameter", "identity")),
    "bound": (int, 4, None),
    "max_height": (int, 3, None),
    "max_depth": (int, None, None),
    "word_length": (int, 3, None),
    "seed": (int, 20260819, None),
    "format": (str, "json", ("json", "table")),
    "timings": (bool, False, None),
}

DEFAULTS = {key: default for key, (_, default, _) in _KEYS.items()}


def parse_config_text(text, where="<config>"):
    """Line-based `key = value` file: values are Python literals, blank
    lines and full-line or trailing `#` comments are ignored."""
    out = {}
    any_line = False
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        any_line = True
        key, sep, val = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{where}:{ln}: expected 'key = value'")
        if key not in _KEYS:
            raise ConfigError(f"{where}:{ln}: unknown key {key!r}")
        val = val.strip()
        try:
            # a trailing comment is ignored by the literal parser itself
            parsed = ast.literal_eval(val)
        except (ValueError, SyntaxError):
            raise ConfigError(
                f"{where}:{ln}: value for {key!r} is not a literal")
        want, default, _ = _KEYS[key]
        if parsed is None and default is not None:
            raise ConfigError(
                f"{where}:{ln}: {key!r} must be a {want.__name__}")
        if parsed is not None and not (
                _is_int(parsed) if want is int else isinstance(parsed, want)):
            raise ConfigError(
                f"{where}:{ln}: {key!r} must be a {want.__name__}")
        if key in out:
            raise ConfigError(f"{where}:{ln}: duplicate key {key!r}")
        out[key] = parsed
    if not any_line:
        raise ConfigError(f"{where}: configuration defines no keys")
    return out


def _is_int(x):
    # bool is an int subclass, but True is not a bound of 1
    return isinstance(x, int) and not isinstance(x, bool)


def _to_fraction(x, what):
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{what}: {x!r} is not a rational number")


class RunConfig:
    """Validated, merged settings for one invocation."""

    def __init__(self, settings):
        self.settings = settings
        preset, cartan = settings["preset"], settings["cartan"]
        if cartan is not None:
            if settings["symmetrizers"] is None:
                raise ConfigError(
                    "'cartan' requires 'symmetrizers' alongside it")
            try:
                self.datum = CartanDatum(cartan, settings["symmetrizers"])
            except (ValueError, TypeError) as ex:
                raise ConfigError(f"invalid Cartan datum: {ex}")
            self.datum_label = f"custom(n={self.datum.n})"
        else:
            try:
                self.datum = CartanDatum.preset(preset)
            except (KeyError, ValueError) as ex:
                raise ConfigError(str(ex))
            self.datum_label = preset
        for key, (_, _, allowed) in _KEYS.items():
            if allowed is not None and settings[key] not in allowed:
                raise ConfigError(
                    f"{key!r} must be one of {', '.join(allowed)}; "
                    f"got {settings[key]!r}")
        self.mode = mode = settings["mode"]
        if settings["numeric"] is not None and mode != "numeric":
            raise ConfigError("'numeric' entries require mode = 'numeric'")
        if mode == "numeric" and settings["numeric"] is None:
            raise ConfigError("mode 'numeric' needs a 'numeric' entry table")
        for key in ("bound", "max_height", "max_depth", "word_length"):
            if settings[key] is not None and settings[key] < 1:
                raise ConfigError(f"{key!r} must be a positive integer")
        ell = settings["ell"]
        if ell < 3 or ell % 2 == 0:
            raise ConfigError("'ell' must be an odd integer >= 3")
        # checked in every mode: `smallqg` reads it whatever the mode says
        if settings["offdiag"] is not None:
            for pair, val in self._index_pairs("offdiag", False):
                if not _is_int(val):
                    raise ConfigError(f"offdiag entry {pair!r} must map to "
                                      "an integer exponent")
        self.offdiag = settings["offdiag"]
        self.bound = settings["bound"]
        self.max_height = settings["max_height"]
        self.max_depth = settings["max_depth"]
        self.word_length = settings["word_length"]
        self.seed = settings["seed"]
        self.ell = ell
        self.qhat = settings["qhat"]
        self.format = settings["format"]
        self.timings = bool(settings["timings"])
        self.weights = [self._parse_weight(c) for c in settings["weights"]] \
            if settings["weights"] is not None else None

    def _parse_weight(self, coords):
        if not isinstance(coords, (list, tuple)):
            raise ConfigError("each weight must be a list of coordinates")
        if len(coords) != self.datum.n:
            raise ConfigError(
                f"weight {coords!r} has {len(coords)} coordinates; the datum "
                f"has rank {self.datum.n}")
        return LatticeVector(tuple(_to_fraction(c, "weight coordinate")
                                   for c in coords))

    def default_weight(self):
        """First fundamental weight of the datum (root-basis coordinates):
        the smallest weight giving a nontrivial module."""
        try:
            return fundamental_weight(self.datum, 0)
        except ValueError:
            raise ConfigError(
                "the Cartan matrix is singular; supply 'weights' explicitly")

    def module_weights(self):
        return self.weights if self.weights is not None \
            else [self.default_weight()]

    def make_params(self):
        datum = self.datum
        plain = {"symbolic": ParamMatrix.symbolic,
                 "one-parameter": ParamMatrix.one_parameter,
                 "mixed-diagonal": ParamMatrix.mixed_diagonal}.get(self.mode)
        if plain is not None:
            return plain(datum)
        if self.mode == "numeric":
            table = {pair: _to_fraction(val, f"numeric entry {pair}")
                     for pair, val in self._index_pairs("numeric", True)}
            try:
                return ParamMatrix.numeric(datum, table)
            except (KeyError, ValueError) as ex:
                raise ConfigError(f"invalid numeric entries: {ex}")
        return self.root_of_unity_params()

    def root_of_unity_params(self):
        """Order-ell parameters for the datum; an order the datum cannot
        take is a configuration error."""
        try:
            return ParamMatrix.root_of_unity(self.datum, self.ell,
                                             offdiag=self.offdiag)
        except ValueError as ex:
            raise ConfigError(f"invalid root-of-unity parameters: {ex}")

    def _index_pairs(self, key, diagonal):
        """Items of the `key` table after checking that each key is a free
        index pair: 0 <= i <= j < n with the diagonal, 0 <= i < j < n
        without it."""
        n = self.datum.n
        for pair in self.settings[key]:
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(_is_int(k) for k in pair)
                    and 0 <= pair[0] <= pair[1] < n
                    and (diagonal or pair[0] < pair[1])):
                raise ConfigError(
                    f"{key} entry key {pair!r} must be a pair (i, j) with "
                    f"0 <= i {'<=' if diagonal else '<'} j < {n}")
        return self.settings[key].items()

    def base_inputs(self):
        return {"datum": self.datum_label, "mode": self.mode}


# -- report helpers ------------------------------------------------------------------


def _run(records, check, inputs, fn):
    """Append the record of one check; an exhausted search inside it (closure
    depth) or a datum out of scope is undecided."""
    t0 = time.perf_counter()
    try:
        status, detail = fn()
    except (ClosureError, FiniteTypeError) as ex:
        status, detail = "undecided", str(ex)
    records.append({
        "check": check,
        "inputs": inputs,
        "status": status,
        "detail": detail,
        "ms": round((time.perf_counter() - t0) * 1000.0, 3),
    })


def _rid_label(rid):
    tag, i, j = rid
    return f"{tag}({i},{j})"


# -- suites --------------------------------------------------------------------------


def cmd_check_relations(cfg):
    records = []
    real = Realization(cfg.datum, cfg.make_params())
    reducer = IdealReducer(real)
    base = cfg.base_inputs()
    for rid in real.relation_ids():
        def fn(rid=rid):
            return relation_verdict(reducer, rid, real.relation_residuals(rid),
                                    cfg.bound)

        _run(records, f"relations/{_rid_label(rid)}", base, fn)
    return records


def _letter_tags(alg):
    return sorted(alg.letters)


def _enumerate_words(alg, max_len):
    """Deterministic word list: identity tails at every length up to
    max_len, plus a mixed nontrivial tail on the short words."""
    g = alg.group
    tags = _letter_tags(alg)
    twisted = g.element([(("K", 0), 1), (("Kp", alg.datum.n - 1), -1)])
    words = [Word((), g.identity), Word((), twisted)]
    layer = [()]
    for ln in range(1, max_len + 1):
        layer = [prev + (t,) for prev in layer for t in tags]
        words.extend(Word(ls, g.identity) for ls in layer)
        if ln <= 2:
            words.extend(Word(ls, twisted) for ls in layer)
    return words


def cmd_check_hopf(cfg):
    records = []
    alg = Realization(cfg.datum, cfg.make_params()).alg
    base = dict(cfg.base_inputs())
    L = cfg.word_length
    words = _enumerate_words(alg, L)
    rng = random.Random(cfg.seed)
    tags = _letter_tags(alg)
    extra = []
    for _ in range(20):
        ls = tuple(rng.choice(tags) for _ in range(L + 1))
        extra.append(alg.word(ls))

    def coassoc():
        for w in words + extra:
            x = alg.element({w: alg.one})
            via_left = {}
            via_right = {}
            for (a, b), c in alg.coproduct(x).items():
                add_into(via_left, dict.fromkeys(
                    ((a1, a2, b) for a1, a2 in alg.coproduct_word(a)), c))
                add_into(via_right, dict.fromkeys(
                    ((a, b1, b2) for b1, b2 in alg.coproduct_word(b)), c))
            if via_left != via_right or via_left != alg.coproduct_iter(x, 3):
                return "fail", f"coassociativity broken on {alg.render_word(w)}"
        return "pass", f"{len(words) + len(extra)} words, length <= {L + 1}"

    _run(records, "hopf/coassociativity",
         {**base, "max_len": L + 1}, coassoc)

    singles = [alg.letter_element(t) for t in tags]
    g = alg.group
    singles.append(alg.group_like(g.basis(("K", 0))))
    singles.append(alg.group_like(g.basis(("Kp", alg.datum.n - 1), -1)))

    def assoc():
        count = 0
        for x in singles:
            for y in singles:
                for z in singles:
                    count += 1
                    if alg.product(alg.product(x, y), z) \
                            != alg.product(x, alg.product(y, z)):
                        return "fail", "associativity broken on a triple"
        return "pass", f"{count} letter/group-like triples"

    _run(records, "hopf/associativity", base, assoc)

    pair_words = [w for w in words if len(w.letters) <= 2]

    def bialgebra():
        # Delta(xy) against Delta(x) Delta(y) on basis words, both sides
        # kept as {left word: {right word: coefficient}}; every cut of a
        # basis word has coefficient one
        one = alg.one
        cuts = {w: alg.coproduct_word(w) for w in pair_words}
        count = 0
        for wx in pair_words:
            for wy in pair_words:
                count += 1
                lhs = {}
                for w, c in alg.word_product(wx, wy).items():
                    for a, b in alg.coproduct_word(w):
                        lhs.setdefault(a, {})[b] = c
                rhs = {}
                for a1, a2 in cuts[wx]:
                    for b1, b2 in cuts[wy]:
                        right = alg.word_product(a2, b2)
                        for wl, cl in alg.word_product(a1, b1).items():
                            add_into(rhs.setdefault(wl, {}), right,
                                     None if cl == one else cl)
                if lhs != {wl: sl for wl, sl in rhs.items() if sl}:
                    return "fail", (
                        "coproduct not multiplicative on "
                        f"{alg.render_word(wx)} , {alg.render_word(wy)}")
        return "pass", f"{count} word pairs, length <= 2"

    _run(records, "hopf/bialgebra", base, bialgebra)

    anti_words = [w for w in words if len(w.letters) <= min(L, 3)]

    def antipode():
        for w in anti_words:
            x = alg.element({w: alg.one})
            left = {}
            right = {}
            for (a, b), c in alg.coproduct(x).items():
                add_into(left, alg.product(
                    alg.antipode_word(a), alg.element({b: alg.one})).terms, c)
                add_into(right, alg.product(
                    alg.element({a: alg.one}), alg.antipode_word(b)).terms, c)
            target = alg.unit().scale(alg.counit(x))
            if alg.element(left) != target or alg.element(right) != target:
                return "fail", f"antipode law broken on {alg.render_word(w)}"
        return "pass", f"{len(anti_words)} words, length <= {min(L, 3)}"

    _run(records, "hopf/antipode", {**base, "max_len": min(L, 3)}, antipode)
    return records


def cmd_check_closed_forms(cfg):
    records = []
    real = Realization(cfg.datum, cfg.make_params())
    alg = real.alg
    base = cfg.base_inputs()
    n = cfg.datum.n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            top = 1 - cfg.datum.a[i][j]
            for side in ("left", "right"):

                def fn(i=i, j=j, side=side, top=top):
                    for s in range(1, top + 1):
                        got = real.ad_power(side, i, j, s)
                        want = real.ad_power_closed(side, i, j, s)
                        if got != want:
                            return "fail", f"mismatch at s={s}"
                        if s < top and got.is_zero:
                            return "fail", f"premature vanishing at s={s}"
                    if not real.ad_power(side, i, j, top).is_zero:
                        return "fail", f"no vanishing at s={top}"
                    return "pass", f"s=1..{top}, vanishing at {top}"

                _run(records, f"closed-forms/ad-{side}({i},{j})", base, fn)
    for i in range(n):

        def fn(i=i):
            for r in range(2, 4):
                if alg.power(real.e_elt(i), r) != real.power_closed_e(i, r):
                    return "fail", f"raising power r={r}"
                if alg.power(real.f_elt(i), r) != real.power_closed_f(i, r):
                    return "fail", f"lowering power r={r}"
            return "pass", "powers r=2,3"

        _run(records, f"closed-forms/powers({i})", base, fn)
    return records


def cmd_pairing_gram(cfg):
    records = []
    real = Realization(cfg.datum, cfg.make_params())
    pairing = SkewPairing(real)
    base = cfg.base_inputs()
    pm = real.params

    def base_values():
        for i in range(cfg.datum.n):
            want = pm.entry(i, i) / (pm.one - pm.entry(i, i))
            if pairing.base_value(i) != want:
                return "fail", f"base value at index {i}"
        return "pass", f"{cfg.datum.n} generator pairs"

    _run(records, "pairing/base-values", base, base_values)
    for h in range(1, cfg.max_height + 1):
        for beta in sorted(weights_of_height(cfg.datum, h),
                           key=lambda b: b.coords):

            def fn(beta=beta):
                if not cfg.datum.is_finite_type():
                    return "undecided", ("no partition-count oracle for a "
                                         "datum not of finite type")
                f_basis, e_basis, gram = pairing.gram_matrix(beta)
                want = kostant_count(cfg.datum, beta)
                if len(f_basis) != want or len(e_basis) != want:
                    return "fail", (f"basis sizes {len(f_basis)}/"
                                    f"{len(e_basis)} != partition count "
                                    f"{want}")
                if not gram.det():
                    return "fail", "Gram determinant vanishes"
                return "pass", (f"dim {want}, Gram determinant nonzero")

            _run(records, f"pairing/gram{render_weight(beta)}",
                 {**base, "height": h}, fn)
    return records


class ModuleVerdicts:
    """The four verdicts on one highest-weight module, in report order
    (`NAMES`).  `dimension` builds the module with `build` and compares its
    dimension with the Weyl oracle; the other three judge the module it
    built (`mod`), so they are asked only after a build that succeeded.  An
    action image that leaves the built module fails `relations`."""

    NAMES = ("dimension", "nilpotency", "closure", "relations")

    def __init__(self, build):
        self.build = build
        self.mod = None

    def dimension(self):
        try:
            self.mod = mod = self.build()
        except FiniteTypeError:
            raise  # out of scope: `_run` reports it undecided
        except ValueError as ex:
            return "fail", str(ex)
        dims = ", ".join(str(d) for _, d in mod.weight_dims())
        if not mod.datum.is_finite_type():
            return "pass", (f"dimension {mod.dimension} (no finite-type "
                            f"oracle); weight-space dims [{dims}]")
        want = weyl_dim(mod.datum, mod.lam)
        if mod.dimension != want:
            return "fail", f"dimension {mod.dimension} != oracle {want}"
        return "pass", (f"dimension {mod.dimension} matches oracle; "
                        f"weight-space dims [{dims}]")

    def nilpotency(self):
        for i in range(self.mod.datum.n):
            got = self.mod.nilpotency_threshold(i)
            want = self.mod.marks[i] + 1
            if got != want:
                return "fail", f"threshold {got} != {want} at index {i}"
        return "pass", "all equal 1 + pairing with the coroot"

    def closure(self):
        if self.mod.closure_certified:
            return "pass", "lowering closure re-verified"
        return "fail", "closure certificate missing"

    def relations(self):
        try:
            report = self.mod.relation_matrix_report()
        except ValueError as ex:
            return "fail", str(ex)
        bad = sorted(_rid_label(rid) for rid, ok in report.items() if not ok)
        if bad:
            return "fail", "failing matrix identities: " + ", ".join(bad)
        return "pass", f"{len(report)} relation matrix identities"


def _build_module(cfg, lam, root_of_unity):
    """The module of highest weight lam over order-ell parameters (refusing
    weights outside the alcove) or over the configured parameters."""
    if root_of_unity:
        return root_of_unity_module(cfg.datum, lam, cfg.ell,
                                    offdiag=cfg.offdiag,
                                    max_depth=cfg.max_depth)
    return build_module(cfg.datum, cfg.make_params(), lam,
                        max_depth=cfg.max_depth)


def cmd_module(cfg):
    records = []
    base = cfg.base_inputs()
    for lam in cfg.module_weights():
        inputs = {**base, "weight": render_weight(lam)}
        verdicts = ModuleVerdicts(
            partial(_build_module, cfg, lam, cfg.mode == "root-of-unity"))
        for name in verdicts.NAMES:
            _run(records, f"module/{name}", inputs, getattr(verdicts, name))
            if verdicts.mod is None:
                break
    return records


def cmd_twist(cfg):
    records = []
    ctx = build_twist(cfg.datum, cfg.qhat)
    base = {"datum": cfg.datum_label, "target": cfg.qhat}
    g = ctx.alg.group

    def gauge():
        for i in range(cfg.datum.n):
            if ctx.sigma(g.basis(("K", i)), g.basis(("Kp", i))) != ctx.alg.one:
                return "fail", f"gauge broken at index {i}"
        return "pass", "cocycle pairs the torus halves trivially"

    _run(records, "twist/gauge", base, gauge)

    reducer = IdealReducer(ctx.real)
    for rid in ctx.real.relation_ids():
        def fn(rid=rid):
            return relation_verdict(reducer, rid, ctx.twisted_residuals(rid),
                                    cfg.bound)

        _run(records, f"twist/{_rid_label(rid)}", base, fn)

    _run(records, "twist/contraction", base, ctx.contraction_verdict)

    def comparison():
        gens = []
        for i in range(cfg.datum.n):
            gens.extend([ctx.real.e_elt(i), ctx.real.f_elt(i),
                         ctx.real.k_elt(i), ctx.real.kp_elt(i)])
        hat_gens = []
        for i in range(cfg.datum.n):
            hat_gens.extend([ctx.hat_real.e_elt(i), ctx.hat_real.f_elt(i),
                             ctx.hat_real.k_elt(i), ctx.hat_real.kp_elt(i)])
        for x, hx in zip(gens, hat_gens):
            if ctx.phi_map(x) != hx:
                return "fail", "comparison map misses a generator image"
        for x in gens:
            for y in gens:
                lhs = ctx.phi_map(ctx.twisted_product(x, y))
                rhs = ctx.hat_alg.product(ctx.phi_map(x), ctx.phi_map(y))
                if lhs != rhs:
                    return "fail", "comparison map fails to intertwine"
        return "pass", (f"{len(gens)} generator images, "
                        f"{len(gens) ** 2} products intertwined")

    _run(records, "twist/comparison", base, comparison)
    return records


def cmd_smallqg(cfg):
    records = []
    datum = cfg.datum
    real = Realization(datum, cfg.root_of_unity_params())
    alg = real.alg
    base = {"datum": cfg.datum_label, "ell": cfg.ell}

    for i in range(datum.n):

        def fn(i=i):
            if not alg.power(real.e_elt(i), cfg.ell).is_zero:
                return "fail", "raising power survives"
            if not real.power_closed_e(i, cfg.ell).is_zero:
                return "fail", "raising closed form survives"
            if not alg.power(real.f_elt(i), cfg.ell).is_zero:
                return "fail", "lowering power survives"
            if not real.power_closed_f(i, cfg.ell).is_zero:
                return "fail", "lowering closed form survives"
            return "pass", (f"both generator powers vanish at {cfg.ell} "
                            "(literal product and factorial form)")

        _run(records, f"smallqg/nilpotency({i})", base, fn)

    def grading():
        moduli = alg.group.moduli
        if any(m != cfg.ell for m in moduli):
            return "fail", f"moduli {moduli} not uniformly {cfg.ell}"
        order = alg.group.order()
        if order != cfg.ell ** (2 * datum.n):
            return "fail", f"group order {order} is not ell^(2n)"
        return "pass", f"finite grading group of order {order}"

    _run(records, "smallqg/grading-group", base, grading)

    weights = cfg.module_weights()
    for lam in weights:
        inputs = {**base, "weight": render_weight(lam)}

        def fn(lam=lam):
            try:
                inside = alcove_check(datum, lam, cfg.ell)
            except FiniteTypeError:
                raise  # out of scope: `_run` reports it undecided
            except ValueError as ex:
                return "fail", str(ex)
            if not inside:
                return "pass", "outside the alcove: flagged, no module built"
            verdicts = ModuleVerdicts(partial(_build_module, cfg, lam, True))
            for name in verdicts.NAMES:
                status, detail = getattr(verdicts, name)()
                if status != "pass":
                    return status, detail
            return "pass", (f"inside the alcove: dimension "
                            f"{verdicts.mod.dimension}, relations and "
                            "thresholds verified")

        _run(records, "smallqg/alcove-module", inputs, fn)
    return records


# -- emission ------------------------------------------------------------------------


def emit(records, cfg, out=None):
    out = sys.stdout if out is None else out
    if cfg.format == "json":
        for rec in records:
            payload = {k: v for k, v in rec.items()
                       if cfg.timings or k != "ms"}
            out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        headers = ("CHECK", "INPUTS", "STATUS", "DETAIL", "MS")
        rows = []
        for rec in records:
            inputs = " ".join(f"{k}={v}" for k, v in
                              sorted(rec["inputs"].items()))
            rows.append((rec["check"], inputs, rec["status"], rec["detail"],
                         f"{rec['ms']:.1f}"))
        widths = [max(len(headers[c]), *(len(r[c]) for r in rows)) if rows
                  else len(headers[c]) for c in range(5)]
        line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        out.write(line.rstrip() + "\n")
        out.write("  ".join("-" * w for w in widths) + "\n")
        for r in rows:
            out.write("  ".join(v.ljust(w)
                                for v, w in zip(r, widths)).rstrip() + "\n")
        failed = sum(1 for rec in records if rec["status"] != "pass")
        out.write(f"{len(records)} checks, {failed} not passing\n")
    bad = [r for r in records if r["status"] != "pass"]
    return 1 if bad else 0


# -- argument handling ---------------------------------------------------------------


def _common_flags(parser):
    parser.add_argument("--config", metavar="PATH",
                        help="configuration file (key = value lines)")
    parser.add_argument("--format", choices=_KEYS["format"][2], default=None,
                        help="report format (default json)")
    parser.add_argument("--bound", type=int, default=None, metavar="N",
                        help="ideal-reduction word-length bound")
    parser.add_argument("--max-height", type=int, default=None, metavar="H",
                        help="height cutoff for graded suites")
    parser.add_argument("--seed", type=int, default=None, metavar="S",
                        help="seed for the randomized property layers")
    parser.add_argument("--timings", action="store_true", default=None,
                        help="include elapsed milliseconds in JSON records")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mpqg",
        description="Exact verification suites for multi-parameter quantum "
                    "groups realized inside cotensor Hopf algebras.  Common "
                    "flags (--config, --format, --bound, --max-height, "
                    "--seed, --timings) follow the subcommand.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="relation, Hopf-axiom, or closed-form suites")
    p_check.add_argument("suite",
                         choices=("relations", "hopf", "closed-forms"))
    _common_flags(p_check)

    p_pair = sub.add_parser("pairing", help="skew-pairing suites")
    p_pair.add_argument("what", choices=("gram",))
    _common_flags(p_pair)

    p_mod = sub.add_parser("module", help="highest-weight module suites")
    p_mod.add_argument("--lambda", dest="lam", metavar="C1,C2,...",
                       default=None,
                       help="weight coordinates in the root basis "
                            "(fractions allowed), e.g. 1,1 or 2/3,1/3")
    _common_flags(p_mod)

    p_twist = sub.add_parser("twist", help="cocycle-twist suites")
    p_twist.add_argument("--qhat", choices=_KEYS["qhat"][2],
                         default=None, help="target parameter matrix")
    _common_flags(p_twist)

    p_small = sub.add_parser(
        "smallqg", help="root-of-unity nilpotency, grading, alcove modules")
    p_small.add_argument("--ell", type=int, default=None, metavar="L",
                         help="odd order of the diagonal parameters")
    _common_flags(p_small)
    return parser


def _merge_settings(args):
    settings = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as ex:
            raise ConfigError(f"cannot read config: {ex}")
        settings.update(parse_config_text(text, where=args.config))
    # flags whose argparse dest is the config key they set
    for key in ("format", "bound", "max_height", "seed", "ell", "qhat"):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if args.timings:
        settings["timings"] = True
    if getattr(args, "lam", None) is not None:
        settings["weights"] = [args.lam.split(",")]
    return settings


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(_merge_settings(args))
        if args.command == "check":
            if args.suite == "relations":
                records = cmd_check_relations(cfg)
            elif args.suite == "hopf":
                records = cmd_check_hopf(cfg)
            else:
                records = cmd_check_closed_forms(cfg)
        elif args.command == "pairing":
            records = cmd_pairing_gram(cfg)
        elif args.command == "module":
            records = cmd_module(cfg)
        elif args.command == "twist":
            records = cmd_twist(cfg)
        elif args.command == "smallqg":
            records = cmd_smallqg(cfg)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as ex:
        print(f"mpqg: config error: {ex}", file=sys.stderr)
        return 2
    return emit(records, cfg)


if __name__ == "__main__":
    sys.exit(main())

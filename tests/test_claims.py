"""The claim registry: golden output, depth handling, failures and the cache.

The sha256 digests below were recorded from the implementation before the
claim registry existed; the registry must reproduce that output byte for
byte in every format, together with the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import asmref
import asmref.claims as claims
import asmref.cli as cli
from asmref import extension, polynomials, triangles
from asmref.claims import CLAIMS
from asmref.combinat import total_asm_count
from asmref.config import DEFAULT_BUDGET
from asmref.documents import TableCache, table_document
from asmref.errors import NonIntegralError
from asmref.polynomials import BinomBasisExpansion, PolyMulti
from asmref.reports import Witness
from asmref.triangles import Asm, RefinedTable

import oracles

#: argv -> (exit code, sha256 of stdout)
GOLDEN = {
    "verify alpha-identities --n 1..3 --format pretty": (0, "b2aa6968b058db4ce708172edc7a6ab397a9ac8987c369d501cf4b590fa06f5c"),
    "verify alpha-identities --n 1..3 --format json": (0, "99217a4cfdd9e96699e459771a8786973e8652652aede8564143e6ed66f376ff"),
    "verify alpha-identities --n 1..3 --format csv": (0, "7fd49549485701d6114b332469763ff53d291630a7e36351d3d974a107eb42eb"),
    "verify bijection --n 1..4 --format pretty": (0, "5e1940b93cd52075f3af982bb5b7bece90499d19b1fc41260c65b11288e7054b"),
    "verify bijection --n 1..4 --format json": (0, "b7bfb67d25ac230cb019d97bc65f760fae1208be396c9367e01c7f6bd9ed1c4d"),
    "verify bijection --n 1..4 --format csv": (0, "036de3ca95c3e2f2422bb21997076b1075835734926bc70c048fe03f26c09b32"),
    "verify conj1 --n 3..6 --format pretty": (0, "8bea9d7a4f6a2389bd3e7c3f131e5c861cbc14b545be4c0833a54fe1a2c0a694"),
    "verify conj1 --n 3..6 --format json": (0, "bd2d4561eba295b00252e8a46158b9780b4367f151786ead9d274ba583e7944c"),
    "verify conj1 --n 3..6 --format csv": (0, "3a8caae100d91eae7e3f4619541f345c3059eebe86440e890f63ab8204f526de"),
    "verify conj2 --n 3..6 --format pretty": (0, "d1daf1f9d8d0f5a3a1bad36298b5f4bc500f78e81f081b89d84984b0aeec17bb"),
    "verify conj2 --n 3..6 --format json": (0, "475ccab7852acadac9273c9eeea6d3218a10604dabea886d586b4eb10dcf230b"),
    "verify conj2 --n 3..6 --format csv": (0, "64886ba6577ba0b670943694b7b30b989d9efd94fc3bfadebea55361684626d1"),
    "verify conj3 --n 4 --format pretty": (0, "908969e84554d2b7e7ab3e06bbdfccec377947a3667d3a65c45203c364324dc6"),
    "verify conj3 --n 4 --format json": (0, "0af5129c1fc171fec01270c96ac8715e11c848b3e00d0292207e8e59ac9b6896"),
    "verify conj3 --n 4 --format csv": (0, "e3134bed827b9e3afc051f235c750d0b3ec61ef1bdec0eedd0d8eacbe7cd751a"),
    "verify conj4 --n 4 --format pretty": (0, "99c049c080d102fa98ad3049e6103dffee3c39b905fdc388658269d553dda9ba"),
    "verify conj4 --n 4 --format json": (0, "5309c610f1ba9fdb90d870e37e1019011e9aaac9797bbd3df235b40e5b4803b2"),
    "verify conj4 --n 4 --format csv": (0, "eeb00a59c89a6bfe5ecd34e0279c6df18951e7d969319b42556a970f48e74116"),
    "verify gn-reflection --n 1..4 --format pretty": (0, "3bcfde25804b4414db07264b630294eb0dac374d0f6008c738a238160a1aeda7"),
    "verify gn-reflection --n 1..4 --format json": (0, "79aeba84d91eae884264c844afc9daa0f7dded08b771b86dd2ace43b3eb37c8e"),
    "verify gn-reflection --n 1..4 --format csv": (0, "dbe7fd0dc2c4e1812cd1aa076062f0623131b76f9e7aa6d5dba25b05eeb22107"),
    "verify ilse --n 3..6 --format pretty": (0, "b2d6cc29ed1c192373bda5ba595c131b1cc9e19298038e68d29add4dd25ccd49"),
    "verify ilse --n 3..6 --format json": (0, "569d89800e944bc43380ed0c54f1526a047fccd186445a174b24f391faad6f27"),
    "verify ilse --n 3..6 --format csv": (0, "5d91efbaa4cac69037f3ba45e6111878319af07fab9ca15e7c08b22747685346"),
    "verify product-formulas --n 3..6 --format pretty": (0, "2c570f7f0f5cb5adf9fe646afa8c39addd785f9c6f35fab20c7f2272202c737f"),
    "verify product-formulas --n 3..6 --format json": (0, "b77d045274fc57f699befbca7d2c4796b218c75d8b5312224a8ce84cd44a3748"),
    "verify product-formulas --n 3..6 --format csv": (0, "9be850fe7e916498d4659781705a5b0aeec0cefb78ffe5978aaa9595eb24faea"),
    "verify special-values --n 3..6 --format pretty": (0, "d0011023d6e4dd8dde5ffbd730b84e08777c99a07857b7d740277bd5ff20e73b"),
    "verify special-values --n 3..6 --format json": (0, "444ef67e79c5a9a52649a3d22e14f4bed72bf5f8c0d0eef607ea3ad3a6edd877"),
    "verify special-values --n 3..6 --format csv": (0, "7e3b3ac23e9b23bad46bbbd9531a9a40d32a820b33f07c906da5310089f5e2db"),
    "verify theorem1 --n 3..6 --format pretty": (0, "8cdade629c136e8643e9f20796be54ca8edd2b51236f6c78438d9907376df8dc"),
    "verify theorem1 --n 3..6 --format json": (0, "fd05044c1b5dda544051e6d0e10baa2a216b3974ac4be35c7e06f7bd68d611bb"),
    "verify theorem1 --n 3..6 --format csv": (0, "7cbe5fa7f4d52b9eaccaec67c03bdcc357cd9431f985b511e63be60a2ec1eeaf"),
    "verify theorem2 --n 3..6 --format pretty": (0, "063acbd5a3db31eab6e616fa5bf906ad0d38615d82db2e3cc4475a9e7a7ed895"),
    "verify theorem2 --n 3..6 --format json": (0, "f2e1f2a77b9a60f699678568c26bbcc8e2e78e819b3febacee5f4f31bb94d50a"),
    "verify theorem2 --n 3..6 --format csv": (0, "4968a49a46eecec4e353ecc90c31f4282656e573c68aff6547a6c22e9a934ccb"),
    "verify theorem4 --n 3..6 --format pretty": (0, "3ae7d0cd3d59cb77463338ac2e9705f8f775615391029d6bbf40a36176f99bc6"),
    "verify theorem4 --n 3..6 --format json": (0, "d49fe9f6ac29a5d1c239e653199bf4af1d10198adfe8bba82b5f3679d0ea956d"),
    "verify theorem4 --n 3..6 --format csv": (0, "90e1ac5285789798a2c755500594276d55cce88169957e49c3c607bc23424941"),
    "verify triangular-system --n 3..6 --format pretty": (0, "8c71433716bff625dcf1a8de5751955ca2b6627e7cc3d194b494b2191d9fa36b"),
    "verify triangular-system --n 3..6 --format json": (0, "2b4b018e45ddf3c2df9960036f2080b01e98ae5b1dc2c4b3dfa05b4a03409cbc"),
    "verify triangular-system --n 3..6 --format csv": (0, "26670c849730f18acd45b8c29bb773ff7ff97ae6d1dde6c380609bca82b975b3"),
    "verify zw-chain --n 3..6 --format pretty": (0, "bf35a2d9cc82cafe5d488e1e4ad3dd83dbd3508c7e4c2a16a03248a078a488c6"),
    "verify zw-chain --n 3..6 --format json": (0, "1abc065260e96f3dd3db31393fdd8fa8ee282c9eec7a2b861f7e54118a431f28"),
    "verify zw-chain --n 3..6 --format csv": (0, "81f5868aa32a2b254bcddb983c73f0d74354003b49e702b7f3783352378f224e"),
    "count --n 6 --d 1 --format pretty": (0, "eff0536fc8f3b2a9484e3c781874b22117c9029306acd2f1883abf2215bc22e6"),
    "count --n 6 --d 2 --format pretty": (0, "61de2df6823f1383e74340d2ec0b807d537d00820c093b508378291c31dc15ac"),
    "extend --n 6 --format pretty": (0, "37aa37dcdd8de0b48a5c20d80c00e7b2cf6c143add51f0c01bdea6fbca0cf4e2"),
    "appendix-a --format pretty": (0, "7eeaee4791876fb35af3270d17f758e3ca6ce8d697dffdf45af8d76f5fb4b6aa"),
    "count --n 6 --d 1 --format json": (0, "579976c948ea2587770814bdbffc419e97bfba4b26c1a8955be509b9bbb88bc7"),
    "count --n 6 --d 2 --format json": (0, "83db83f0932c1e51719ca21684bf96a8d2c5b906af8e1cbf4d56abe21fc630ca"),
    "extend --n 6 --format json": (0, "6a0f9afa92f645477d348e69b237a204f15343029ca1490bf69d493a46fc6962"),
    "appendix-a --format json": (0, "108e9a1485ef71c0814ffed09bd762d574c24983d9ede2885e3022e78d9e42c9"),
    "count --n 6 --d 1 --format csv": (0, "48ebe626c4359eaa7d71b88745f70b98712c6218d2614e73f0f1d0b0f7370b8f"),
    "count --n 6 --d 2 --format csv": (0, "99546321d8fe0b7d2048c1cbc8c2ac33189ae48b5c8bc27194378ffcc7d23051"),
    "count --n 6 --indices 2,4 --format csv": (0, "2dc8f796b135e207601a7c0b47276a37034c80b7630ebeaa81cced695cefaef4"),
    "count --n 6 --indices 2,4 --format pretty": (0, "f807fe6dc767be2e7021d41540114b33b30fa7784f6de5521251f23a3eb66468"),
    "count --n 6 --indices 2,4 --format json": (0, "847140db495a782f2c76f3cdfccf4368e11ca9bc8928716a4123bbd0cbab8c13"),
    "extend --n 6 --format csv": (0, "1f86517ad795b815f0247a14034017a543199f5200ed3d011f72b940dada5abc"),
    "appendix-a --format csv": (0, "a400dc7866bc8f29d9985c995b3ad25bfca10579e2c7b01d0fe971d88c66050f"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_output(argv, capsys):
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[argv]


#: argv -> (exit code, sha256 of stdout) of a b-file check, recorded before the
#: CLI wrote every format through one path.  PASSING is b005130.txt with the
#: totals at 0..9; MISMATCHING is the same file with the term at 5 one too large.
GOLDEN_OEIS = {
    "oeis-check --b-file PASSING --format pretty": (0, "6786aaf95e4c491b8eec053a982da1bbdd3c73f7aa4cf919207dc968f01fa840"),
    "oeis-check --b-file PASSING --format json": (0, "7e614dca391e8938c25b5d4da0f2c602ae7429e9041953ff81f9c35dd501ffdc"),
    "oeis-check --b-file MISMATCHING --limit 8 --format pretty": (1, "360a7dc5649cd2b9615ffb0cc531920f5862b1ee75c0b833b2eff16bb99a66bc"),
    "oeis-check --b-file MISMATCHING --limit 8 --format json": (1, "8ad11521f76488873837d0c7460076120a0d5670c9a3d21eea9ba3ea725c0281"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_OEIS))
def test_golden_oeis_check_output(argv, tmp_path, capsys):
    fixtures = {}
    for name, corrupt in (("PASSING", None), ("MISMATCHING", 5)):
        path = tmp_path / name / "b005130.txt"
        path.parent.mkdir()
        values = [total_asm_count(i) + (i == corrupt) for i in range(10)]
        path.write_text("".join(f"{i} {v}\n" for i, v in enumerate(values)))
        fixtures[name] = str(path)
    code = cli.main([fixtures.get(word, word) for word in argv.split()])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_OEIS[argv]


#: argv -> (exit code, sha256 of stdout) on corrupted input, recorded before
#: the claims read the extended array's equations from one definition each;
#: the conj2 and ilse digests before explicit_formula summed over one integer
#: denominator and extend_matrix read a coefficient table; the zw-chain and
#: theorem4 digests before z_value read the depth-2 table.
#: The table claims read order-5 and order-6 tables whose entry (2, 3) is one
#: too large; conj3 reads expansions whose coefficient at (2, 3, 4) is one
#: too large.  The conj4 and special-values digests were recorded before the
#: verifiers stated their equations as cases: conj4 reads a refined count at
#: (1, 2, 3) one too large, special-values one at (2,); a corrupt cached table
#: does not fail special-values at these orders.
GOLDEN_FAILING = {
    "verify theorem1 --n 5..6 --format pretty": (1, "835a073ee85d967df6397d31bba8b2408a0280c62084d0e7ce8f47f60c20a952"),
    "verify theorem1 --n 5..6 --format json": (1, "4c1fb24b1e5d34ce7a27060e1df6dfc2aea83e6d852b37f1558cf69d045d6fe7"),
    "verify theorem2 --n 5..6 --format pretty": (1, "7a2eef735bffcafb0ba0e729416ff68b0bba6e836dadc2af0c5fdbef7aa31860"),
    "verify theorem2 --n 5..6 --format json": (1, "d1109d4009ce261342773060595af5a22fd33bf0fe836c088da95dba10f791b5"),
    "verify conj1 --n 5..6 --format pretty": (1, "ae514d25ed30a9199bada582f1634997d8e37b202a7846a6e53aeeb5c0bc6ad3"),
    "verify conj1 --n 5..6 --format json": (1, "a183a602d174d429928e28641effb04d413b1aef9274cd80aff7b64caf205a9d"),
    "verify conj2 --n 5..6 --format pretty": (1, "a0da89d0cfdafcfcf696af66bfaea1b9847afc469228b6bd0d98bdcb7d36d2a9"),
    "verify conj2 --n 5..6 --format json": (1, "b02a30d10249f37e0d7c3c27c70f376ddf8ad4507d02950fe89feb98e955fad6"),
    "verify ilse --n 5..6 --format pretty": (1, "d4fb3c356f469024b48033563ae40ac448354a6d089167e96338266fed7e91aa"),
    "verify ilse --n 5..6 --format json": (1, "21335f769f2a2cb5cd079dc0fbb827cf2c85ef00b3435d93e204d38e3f43b0ee"),
    "verify zw-chain --n 5..6 --format pretty": (1, "f6aca275ed1dafe8eb81aa3cdcb1db04e0fa88ff16277210c129ac04defa0852"),
    "verify zw-chain --n 5..6 --format json": (1, "f0babe0965506bbeb68092dfcdfc39ba5663091a6270a10eab0631688b9b44d8"),
    "verify theorem4 --n 5..6 --format pretty": (1, "92d0304b919d0189cbc2c1026d55adf496e95713388e9deefaa8d6127f4ed934"),
    "verify theorem4 --n 5..6 --format json": (1, "d965b6a79ca7a442d858d518193b162b599465845aeb6c002deab94639db5d46"),
    "verify conj3 --n 4..5 --format pretty": (1, "50a5f87dee476d6a8d828345f726d74d277f5cf9c11793983cd7d5a612cadd0c"),
    "verify conj3 --n 4..5 --format json": (1, "afef07eb7421ad0d0354571e98c0b4e88c71e768800a11060ce353033ca743df"),
    "verify conj4 --n 4..5 --format pretty": (1, "bc6cb8588ac2659b955def39d3c897ab46c7a2241c3e255889eb229f52abb356"),
    "verify conj4 --n 4..5 --format json": (1, "6df4a73e0833606f022b052a38bc223d9fddd21dfcdc41a2acda61025b6c49b1"),
    "verify special-values --n 5..6 --format pretty": (1, "fa8a5c6b8c2c356ad67d064dd458673d97ad9d5a8744b4dfcec514670b05dc44"),
    "verify special-values --n 5..6 --format json": (1, "5dadf0f9b56c7204d904175ab15e3749d1800c22630ef19e53ba1a7554dda6f8"),
}


def _golden_failing(*claims: str) -> list[str]:
    return [argv for argv in GOLDEN_FAILING if argv.split()[1] in claims]


@pytest.mark.parametrize("argv", _golden_failing(
    "theorem1", "theorem2", "conj1", "conj2", "ilse", "zw-chain", "theorem4"
))
def test_golden_failing_output_of_a_corrupt_cached_table(argv, tmp_path, capsys):
    cache = TableCache(tmp_path)
    for n in (5, 6):
        # the edit is signed, and entry (2, 3) has no product formula, so the
        # cache serves it
        entries = dict(claims.refined_table(n, 2, cache).entries)
        entries[(2, 3)] += 1
        cache.store(table_document(RefinedTable(n, 2, entries)))
    code = cli.main(argv.split() + ["--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_FAILING[argv]


@pytest.mark.parametrize("argv", _golden_failing("conj3"))
def test_golden_failing_output_of_a_wrong_expansion_coefficient(argv, monkeypatch, capsys):
    real = extension.expand_in_binomial_basis

    def expand(poly):
        expansion = real(poly)
        n, coeffs = expansion.n, list(expansion.coeffs)
        coeffs[(1 * n + 2) * n + 3] += 1  # the row-major position of (2, 3, 4)
        return BinomBasisExpansion(n, expansion.d, tuple(coeffs))

    monkeypatch.setattr(extension, "expand_in_binomial_basis", expand)
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_FAILING[argv]


@pytest.mark.parametrize("argv", _golden_failing("conj4", "special-values"))
def test_golden_failing_output_of_a_wrong_refined_count(argv, monkeypatch, capsys):
    wrong = (1, 2, 3) if "conj4" in argv else (2,)
    real = extension.refined_count
    monkeypatch.setattr(
        extension,
        "refined_count",
        lambda n, idx, budget=DEFAULT_BUDGET: real(n, idx, budget) + (tuple(idx) == wrong),
    )
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_FAILING[argv]


def _verify_choices() -> set[str]:
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    verify = commands.choices["verify"]
    return set(next(a for a in verify._actions if a.dest == "claim").choices)


@pytest.fixture
def script(monkeypatch):
    """scripts/run_full_verification.py, recording the claims it would run."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_full_verification.py"
    spec = importlib.util.spec_from_file_location("run_full_verification", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.ran = []
    monkeypatch.setattr(module, "cli_main", lambda argv: module.ran.append(argv[1]) or 0)
    return module


def test_registry_cli_and_script_name_the_same_claims(script, capsys):
    names = set(CLAIMS)
    assert len(names) == 15
    assert _verify_choices() == names
    assert script.main([]) == 0
    assert set(script.ran) == names
    assert {argv.split()[1] for argv in GOLDEN if argv.startswith("verify")} == names


def test_depth_on_a_claim_without_depth_is_usage_error(capsys):
    code = cli.main(["verify", "theorem1", "--n", "4", "--d", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "theorem1 takes no --d" in captured.err


def test_depth_is_accepted_where_it_applies(capsys):
    assert {name for name, claim in CLAIMS.items() if claim.depth} == {
        "conj3", "conj4", "gn-reflection",
    }
    assert cli.main(["verify", "gn-reflection", "--n", "3", "--d", "1"]) == 0
    assert "gn-reflection n=3: PASS" in capsys.readouterr().out


def test_non_integral_solution_is_a_failed_claim(monkeypatch, capsys):
    real = extension.solve_integer_system

    def solve(matrix, rhs):
        result = real(matrix, rhs)
        return replace(result, solution=(Fraction(1, 2),) + result.solution[1:])

    monkeypatch.setattr(extension, "solve_integer_system", solve)
    code = cli.main(["verify", "conj1", "--n", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "conj1 n=4: FAIL" in captured.out
    assert "not an integer" in captured.out
    assert captured.err == ""


def test_non_integral_formula_value_is_a_failed_claim(monkeypatch, capsys):
    # one more matrix in the prefactor's count makes the formula non-integral;
    # every witness must carry the exact fraction, never a rounded value
    real = extension.total_asm_count
    monkeypatch.setattr(extension, "total_asm_count", lambda n: real(n) + 1)
    monkeypatch.setattr(oracles, "total_asm_count", lambda n: real(n) + 1)
    code = cli.main(["verify", "conj2", "--n", "5", "--format", "json"])
    assert code == 1
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    matrix = extension.extend_matrix(claims.refined_table(5, 2))
    expected = []
    for i, j in itertools.product(range(1, 6), repeat=2):
        if (i, j) in {(4, 1), (5, 1), (5, 2)}:
            continue
        try:
            value = oracles.fraction_explicit_formula(5, i, j)
        except NonIntegralError as exc:
            value = str(exc)
        if value != matrix.entry(i, j):
            expected.append({"indices": [i, j], "lhs": str(value), "rhs": str(matrix.entry(i, j))})
    assert report["witnesses"] == expected
    assert len(expected) == 20
    assert all("formula value at n=5" in w["lhs"] for w in report["witnesses"])


TABLE_CLAIMS = (
    "theorem1", "theorem2", "theorem4", "special-values", "ilse", "zw-chain",
    "conj1", "conj2", "triangular-system",
)


@pytest.mark.parametrize("claim", TABLE_CLAIMS)
def test_table_claims_use_the_cache(claim, tmp_path, monkeypatch, capsys):
    argv = f"verify {claim} --n 3..6 --format pretty"
    cached = argv.split() + ["--cache-dir", str(tmp_path)]
    for _ in ("cold", "warm"):
        code = cli.main(cached)
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[argv]
        assert all((tmp_path / f"refined-n{n}-d2.json").exists() for n in range(3, 7))
        # the warm run must be served from the cache alone
        monkeypatch.setattr(claims, "build_table", None)


def test_a_cached_depth_3_table_is_read_back(tmp_path, monkeypatch, capsys):
    # no product formula covers depth 3, so a valid stored table is taken as it is
    argv = ["count", "--n", "6", "--d", "3", "--cache-dir", str(tmp_path)]
    outputs = []
    for _ in ("cold", "warm"):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
        assert (tmp_path / "refined-n6-d3.json").exists()
        monkeypatch.setattr(claims, "build_table", None)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0].split() == ["1", "2", "3", "7"]


def test_a_rank_deficient_system_fails_conj1(monkeypatch, capsys):
    # without its n - 1 last-column rows the system leaves n - 1 unknowns free
    real = extension.sufficiency_system

    def without_last_column(n):
        system = real(n)
        return replace(system, matrix=system.matrix[:1 - n], rhs=system.rhs[:1 - n])

    monkeypatch.setattr(extension, "sufficiency_system", without_last_column)
    assert cli.main(["verify", "conj1", "--n", "3..4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  at (3,): rank 7 != 9" in lines
    assert "  at (4,): rank 13 != 16" in lines
    assert lines[-1] == "conj1: FAIL (3..4)"


def test_script_rejects_an_unknown_claim_before_running_any(script, capsys):
    with pytest.raises(SystemExit) as exc:
        script.main(["--claims", "theorem1", "theorem9"])
    assert exc.value.code == 2
    assert script.ran == []
    assert "invalid choice" in capsys.readouterr().err


def test_product_formulas_take_their_total_from_the_transfer(monkeypatch, capsys):
    real = triangles._row_transfer
    grids = []

    def transfer(grid):
        grids.append(grid)
        return real(grid)

    asmref.clear_caches()
    monkeypatch.setattr(triangles, "_row_transfer", transfer)
    assert cli.main(["verify", "product-formulas"]) == 0
    assert "product-formulas: PASS (1..8)" in capsys.readouterr().out
    # each staircase is one row: the grid of its singleton levels
    assert grids == [tuple((v,) for v in range(n)) for n in range(8, 1, -1)]
    # the total is checked: a wrong transfer total fails the claim
    monkeypatch.setattr(claims, "alpha_count", lambda row: 0)
    assert cli.main(["verify", "product-formulas", "--n", "4"]) == 1
    assert "product-formulas n=4: FAIL" in capsys.readouterr().out


@pytest.fixture
def cold_sweeps():
    """An empty sweep memo before and after the test: a broken kernel's counts do not outlive it."""
    asmref.clear_caches()
    yield
    asmref.clear_caches()


def product_formula_witnesses(n: int, capsys) -> tuple[int, list]:
    code = cli.main(["verify", "product-formulas", "--n", str(n), "--format", "json"])
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    return code, [(tuple(w["indices"]), w["lhs"], w["rhs"]) for w in report["witnesses"]]


def test_a_wrong_sweep_count_fails_product_formulas(monkeypatch, capsys, cold_sweeps):
    real = triangles._column_sweep

    def sweep(n):
        counts = real(n)
        # the bottom row {1..n-1}, entry (n, n), which also serves its translate
        # {2..n}, entry (n, 1)
        counts[(1 << n) - 2] += 1
        return counts

    monkeypatch.setattr(triangles, "_column_sweep", sweep)
    code, witnesses = product_formula_witnesses(6, capsys)
    assert code == 1
    assert witnesses == [((6, 1), "430", "429"), ((6, 6), "430", "429"), ((6,), "7438", "7436")]


def test_a_cell_rule_without_minus_ones_fails_product_formulas(monkeypatch, capsys, cold_sweeps):
    # without the -1 both kernels count permutation matrices: 2 per column and 6 in all
    def plus_ones_only(h0, h1, bit):
        mask = 1 << bit
        for state, ways in h0.items():
            if not state & mask:
                h1[state | mask] = h1.get(state | mask, 0) + ways

    monkeypatch.setattr(triangles, "_cell", plus_ones_only)
    code, witnesses = product_formula_witnesses(3, capsys)
    assert code == 1
    # the counted row, its sum, and the row transfer's total
    assert witnesses == [((3, 2), "2", "3"), ((3,), "6", "7"), ((3,), "6", "7")]


def test_zw_chain_reads_only_the_table(monkeypatch, capsys):
    # neither per-row kernel runs: the sweep behind the table gives every count
    def counted(*args):
        raise AssertionError("a per-row kernel ran")

    monkeypatch.setattr(triangles, "_row_transfer", counted)
    monkeypatch.setattr(triangles, "_interlacing_rows", counted)
    assert not hasattr(extension, "alpha_count")
    assert cli.main(["verify", "zw-chain", "--n", "3..12"]) == 0
    assert capsys.readouterr().out.endswith("zw-chain: PASS (3..12)\n")


def test_verify_range_runs_one_sweep(monkeypatch, capsys):
    real = triangles._column_sweep
    orders = []

    def sweep(n):
        orders.append(n)
        return real(n)

    asmref.clear_caches()
    monkeypatch.setattr(triangles, "_column_sweep", sweep)
    assert cli.main(["verify", "theorem1", "--n", "3..8"]) == 0
    assert orders == [8]
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"theorem1 n={n}: PASS" for n in range(3, 9)] + ["theorem1: PASS (3..8)"]


# The falsifiers: for every claim one named, minimal corruption of what it
# reads, which must fail the claim with a witness at its lowest default order.


def depth_2_count_one_too_large(monkeypatch):
    """The counting kernel's depth-2 table has entry (2, 3) one too large."""
    real = claims.build_table

    def build(n, d):
        entries = dict(real(n, d).entries)
        entries[(2, 3)] += 1
        return RefinedTable(n, d, entries)

    monkeypatch.setattr(claims, "build_table", build)


def extension_binomial_one_too_large(monkeypatch):
    """extend_matrix builds its coefficient table with binom_plus(1, 1) = 2."""
    real = extension.binom_plus
    monkeypatch.setattr(extension, "binom_plus", lambda n, k: real(n, k) + ((n, k) == (1, 1)))


def expansion_coefficient_one_too_large(monkeypatch):
    """The depth-3 expansion has coefficient (1, 1, 1) one too large."""
    real = extension.expand_in_binomial_basis

    def expand(poly):
        expansion = real(poly)
        coeffs = (expansion.coeffs[0] + 1,) + expansion.coeffs[1:]
        return BinomBasisExpansion(expansion.n, expansion.d, coeffs)

    monkeypatch.setattr(extension, "expand_in_binomial_basis", expand)


def refined_count_one_too_large(monkeypatch):
    """The refined count at (1, 2, 3) is one too large."""
    real = extension.refined_count
    monkeypatch.setattr(
        extension,
        "refined_count",
        lambda n, idx, budget=DEFAULT_BUDGET: real(n, idx, budget) + (tuple(idx) == (1, 2, 3)),
    )


def first_coordinate(num_vars: int) -> PolyMulti:
    # x_1 is neither translation invariant nor reflection symmetric
    grid = itertools.product((0, 1), repeat=num_vars)
    return PolyMulti.interpolate([(0, 1)] * num_vars, [pt[0] for pt in grid])


def first_coordinate_as_counting_polynomial(monkeypatch):
    """alpha_polynomial returns x_1."""
    monkeypatch.setattr(polynomials, "alpha_polynomial", lambda n, budget: first_coordinate(n))


def first_coordinate_as_specialization(monkeypatch):
    """gn_poly returns x_1."""
    monkeypatch.setattr(polynomials, "gn_poly", lambda n, d, budget: first_coordinate(d))


def mt_to_asm_one_order_too_large(monkeypatch):
    """mt_to_asm returns the matrix with a 1 added in a new first row and column.

    Order 1 has one matrix, so there only a matrix of another order is wrong.
    """
    real = claims.mt_to_asm

    def to_asm(t):
        rows = real(t).entries
        return Asm(((1,) + (0,) * len(rows),) + tuple((0,) + row for row in rows))

    monkeypatch.setattr(claims, "mt_to_asm", to_asm)


def transfer_total_one_too_large(monkeypatch):
    """The row transfer counts one triangle too many over the staircase."""
    real = claims.alpha_count
    monkeypatch.setattr(claims, "alpha_count", lambda row: real(row) + 1)


FALSIFIERS = {
    "theorem1": depth_2_count_one_too_large,
    "theorem2": depth_2_count_one_too_large,
    "theorem4": depth_2_count_one_too_large,
    "special-values": depth_2_count_one_too_large,
    "ilse": depth_2_count_one_too_large,
    "zw-chain": depth_2_count_one_too_large,
    "conj1": depth_2_count_one_too_large,
    "conj2": depth_2_count_one_too_large,
    "conj3": expansion_coefficient_one_too_large,
    "conj4": refined_count_one_too_large,
    "alpha-identities": first_coordinate_as_counting_polynomial,
    "gn-reflection": first_coordinate_as_specialization,
    "triangular-system": extension_binomial_one_too_large,
    "bijection": mt_to_asm_one_order_too_large,
    "product-formulas": transfer_total_one_too_large,
}


def test_every_claim_has_a_falsifier():
    assert set(FALSIFIERS) == set(CLAIMS)


@pytest.mark.parametrize("claim", sorted(FALSIFIERS))
def test_falsifier_fails_the_claim_at_its_lowest_order(claim, monkeypatch, capsys, cold_sweeps):
    FALSIFIERS[claim](monkeypatch)
    lowest = str(CLAIMS[claim].orders[0])
    code = cli.main(["verify", claim, "--n", lowest, "--format", "json"])
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert code == 1
    assert any(report["witnesses"] for report in reports)


def test_bijection_round_trips_each_listed_triangle_once(monkeypatch):
    calls = {"mt_to_asm": 0, "asm_to_mt": 0}
    for name in calls:

        def counted(x, real=getattr(claims, name), name=name):
            calls[name] += 1
            return real(x)

        monkeypatch.setattr(claims, name, counted)
    assert claims.verify_bijection(4).passed
    assert calls == {"mt_to_asm": 42, "asm_to_mt": 42}


def test_bijection_witnesses_are_round_trip_cases(monkeypatch):
    FALSIFIERS["bijection"](monkeypatch)
    (witness,) = claims.verify_bijection(1).witnesses
    assert witness == Witness((1, 1), ((1,), (1, 2)), ((1,),))
    listed = triangles.complete_monotone_triangles(3)
    witnesses = claims.verify_bijection(3).witnesses
    assert [w.indices for w in witnesses] == [(3, k) for k in range(1, len(listed) + 1)]
    assert [w.rhs for w in witnesses] == [t.rows for t in listed]
    assert all(len(w.lhs) == 4 and w.lhs[1:] != w.rhs for w in witnesses)

"""Byte counts and sha256 of API results beyond the CLI's p <= 13.

The pinned CLI outputs stop at p = 13, where cells are at most 7 wide.
These texts, at p = 17, 19, 23 and 29 (cells up to 15 wide), run the same
engine on wider cells and wider stack dtypes, so they guard every change
to the cell layout, the products and the cup checks there.  p = 29 is the
yardstick prime beyond the cap.  None of them holds a runtime.
"""

import hashlib

import pytest

from frobcoho import hh_table, verify_appendix, verify_propositions

PINS = {
    "props17": (lambda: verify_propositions(17).to_text(), 11615,
                "d2d44cc87d52a8962643fc96c4395835fb9d202531d39410be0f913eee7274c2"),
    "props19": (lambda: verify_propositions(19).to_text(), 13609,
                "73c25ad3db7570f781567f6b10ddf7a001fbb964f45f48d9354ddf365359b599"),
    "props23": (lambda: verify_propositions(23).to_text(), 18076,
                "242a82bf022a2459d030251441cb64a156e901b07c25f4aa35c6cca50457815e"),
    "props29": (lambda: verify_propositions(29).to_text(), 26077,
                "61ac5c3a8063c87d623e86e8f17e397c72c49d1446fc43c5b4bb0c807e3e62ed"),
    "g1-17": (lambda: hh_table("g1", 17, 8).to_tsv(), 8971,
              "6f3b68894de71178322b1d760636d8557f2408b816bd7e24b28bacccc7f3506d"),
    "b1-17": (lambda: hh_table("b1", 17, 8).to_tsv(), 218,
              "8f8cd1fd5ac4a2db3c93add29c31e63af4646488c2141680d7b22fee3055fa37"),
    "u1-17": (lambda: hh_table("u1", 17, 8).to_tsv(), 981,
              "a2c6124d4492490f4497612f9ca3c7702d0a05acb821cc26ed12df66c85721f8"),
    "appendix17": (lambda: verify_appendix(17, allow_synth=True).to_text(), 18895,
                   "e1b5e85c54285f8aae67e9fe4df4b096a4463907fce5009b98e50476ecb6e76d"),
}


@pytest.mark.parametrize("name", PINS)
def test_result_beyond_the_cli_cap_is_pinned(name):
    run, size, digest = PINS[name]
    text = run().encode()
    assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest)

"""Multichannel speech dereverberation toolkit.

Linear-prediction dereverberation (WPE), its plug-and-play ADMM variant
with denoising priors, a shoebox room simulator, objective metrics and a
batch CLI. Callers import each name from its module (`dereverb.wpe`,
`dereverb.pnpwpe`, ...). The package runs no code, so each CLI process
imports only the modules of its subcommand.
"""
